package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{CityConfig, GridCounts}
import repro.model.ModelTier

import scala.collection.mutable

/** Errors of one (grid size, time slot) configuration, summed over all
  * grids (paper §V-B: all reported errors are totals over grids).
  */
final case class SlotEval(
    slot: Int,
    exprErr: Double,
    modelErr: Map[String, Double],
    realErr: Map[String, Double],
) {
  /** Upper bound e(√n) = Σ E_m + Σ E_e (Theorem II.1 / Algorithm 3). */
  def upper(model: String): Double = exprErr + modelErr(model)
}

/** Evaluation protocol shared by all experiments.
  *
  * @param nTargetSide √N — HGrid lattice side (all errors are measured on
  *                    this fixed lattice so they are comparable across n)
  * @param models      prediction tiers to evaluate
  * @param testDay     held-out day for real error / dispatch
  * @param valDays     days whose predictions estimate MAE(f) (Eq. 20)
  * @param trainWindow α_ij estimation window (days before testDay)
  * @param computeReal also compute test-day real error (off for search
  *                    benchmarks — searches only need the upper bound)
  */
final case class EvalConfig(
    nTargetSide: Int,
    models: Seq[ModelTier],
    testDay: Int,
    valDays: Seq[Int],
    trainWindow: Int = 28,
    computeReal: Boolean = true,
) {
  require(valDays.nonEmpty && valDays.forall(d => d > 0 && d <= testDay))
  require(testDay - trainWindow >= 0, "train window precedes day 0")
}

/** Upper-bound evaluator (paper Algorithm 3), memoized per grid size.
  *
  * Spark runs one narrow job here, in the first evaluation: each partition
  * of the events run-length-encodes its HGrid counts, which are then added
  * into a dense day × slot × HGrid array, the count cube. The job has
  * no shuffle and caches nothing, and the cube holds exact integer counts,
  * so it does not depend on how the events are partitioned. Every grid size
  * is then computed from the cube in the JVM, one task per slot: the
  * expression-error kernel, the per-day MGrid roll-up, HA(k) model error
  * (Eq. 20) and test-day real error. Search algorithms pay one evaluation
  * per *distinct* grid size they visit — the cost unit of the paper's
  * Table IV.
  *
  * @param parallelism threads of the per-slot pass; results do not depend
  *                    on it
  */
final class Evaluator(spark: SparkSession, events: DataFrame, val cfg: EvalConfig, parallelism: Int) {

  /** Parallelism = the session's default parallelism. */
  def this(spark: SparkSession, events: DataFrame, cfg: EvalConfig) =
    this(spark, events, cfg, spark.sparkContext.defaultParallelism)

  /** One memo entry per grid size. Concurrent callers of one size wait for
    * a single computation; different sizes compute concurrently.
    */
  private final class Entry(nSide: Int) {
    lazy val value: Map[Int, SlotEval] = {
      val t0 = System.nanoTime()
      val r = compute(nSide)
      val dt = System.nanoTime() - t0
      stats.synchronized { evals += 1; nanos += dt }
      r
    }
  }
  private val memo = new ConcurrentHashMap[Int, Entry]()
  private val stats = new Object
  private var evals = 0
  private var nanos = 0L

  /** Cumulative wall time spent in cache-missing evaluations. The first one
    * includes building the count cube.
    */
  def wallNanos: Long = stats.synchronized(nanos)
  /** Distinct grid sizes evaluated so far. */
  def evalCount: Int = stats.synchronized(evals)

  /** All-slot evaluation of one grid size (memoized; safe to call from
    * several threads).
    */
  def apply(nSide: Int): Map[Int, SlotEval] =
    memo.computeIfAbsent(nSide, new Entry(_)).value

  /** Objective e(√n) for one (slot, model) — what the searches minimize. */
  def objective(slot: Int, model: ModelTier): Int => Double =
    nSide => apply(nSide)(slot).upper(model.name)

  // ---- n-independent state: the count cube and the α surface ------------
  private val hSide = cfg.nTargetSide
  private val cells = hSide * hSide
  private val slots = CityConfig.Slots
  /** First day read: the start of the α window or of the earliest HA(k)
    * window, whichever comes first (the α window does when only short
    * windows are configured).
    */
  private[core] val day0 = math.max(0, math.min(cfg.testDay - cfg.trainWindow,
    cfg.valDays.min - cfg.models.map(_.k).max))
  private val days = cfg.testDay - day0 + 1
  require(days.toLong * slots * cells <= Int.MaxValue, s"count cube of $days days × $cells HGrids is too large")

  /** HGrid counts of days [day0, testDay] at index
    * ((day − day0)·slots + slot)·N + HGrid id; absent cells are zeros.
    */
  private[core] lazy val cube: Array[Int] = countCube()

  /** α per (slot, HGrid) at index slot·N + HGrid id: the mean count over
    * the train window [testDay − trainWindow, testDay).
    */
  private[core] lazy val alpha: Array[Double] = trainMean()

  // The array loops run in methods, not in the lazy val initializers: an
  // initializer keeps `this` on the operand stack, and HotSpot does not
  // compile a loop on stack replacement while the stack is non-empty.

  /** One narrow job: every partition emits its sorted (index, count) runs,
    * which are then added into the cube. The partitions read the events'
    * own internal rows: a derived query would be planned and code-generated
    * anew for every evaluator, which takes about as long as the job itself,
    * and a typed Dataset would box every event.
    */
  private def countCube(): Array[Int] = {
    val schema = events.schema
    val (dayAt, slotAt, xAt, yAt) =
      (schema.fieldIndex("day"), schema.fieldIndex("slot"), schema.fieldIndex("x"), schema.fieldIndex("y"))
    // plain locals, so the task closure does not capture the evaluator
    val (first, last, side, n, perDay) = (day0, cfg.testDay, hSide, cells, slots)
    val runs = events.queryExecution.toRdd
      .mapPartitions { rows =>
        val idx = new mutable.ArrayBuilder.ofInt
        while (rows.hasNext) {
          val r = rows.next()
          val d = r.getInt(dayAt)
          if (d >= first && d <= last)
            idx += ((d - first) * perDay + r.getInt(slotAt)) * n +
              Evaluator.cellIdx(r.getDouble(xAt), side) * side + Evaluator.cellIdx(r.getDouble(yAt), side)
        }
        Iterator.single(Evaluator.runLengths(idx.result()))
      }
      .collect()
    val c = new Array[Int](days * slots * cells)
    for (r <- runs) {
      var i = 0
      while (i < r.length) { c((r(i) >>> 32).toInt) += r(i).toInt; i += 1 }
    }
    c
  }

  private def trainMean(): Array[Double] = {
    val c = cube
    val sum = new Array[Long](slots * cells)
    var d = cfg.testDay - cfg.trainWindow
    while (d < cfg.testDay) {
      val base = at(d, 0)
      var i = 0
      while (i < sum.length) { sum(i) += c(base + i); i += 1 }
      d += 1
    }
    val window = cfg.trainWindow.toDouble
    sum.map(_ / window)
  }

  private def at(day: Int, slot: Int): Int = ((day - day0) * slots + slot) * cells

  private lazy val slotOrder: Array[Int] = Evaluator.busiestFirst(alpha, cells)

  /** Adds `slot`'s HGrid counts of `day` into `out(off + MGrid id)`. */
  private def addDay(slot: Int, day: Int, mgridOf: Array[Int], out: Array[Long], off: Int): Unit = {
    val c = cube
    val base = at(day, slot)
    var h = 0
    while (h < cells) { out(off + mgridOf(h)) += c(base + h); h += 1 }
  }

  /** Every slot of one grid size, one task per slot, busiest first. */
  private def compute(nSide: Int): Map[Int, SlotEval] = {
    val groups = new Evaluator.MGrids(GridSpec(nSide, hSide))
    val order = slotOrder
    val out = new Array[SlotEval](slots)
    Evaluator.parallelFor(slots, parallelism) { i =>
      val s = order(i)
      out(s) = evalSlot(s, groups)
    }
    out.iterator.map(e => e.slot -> e).toMap
  }

  /** One slot: expression error, the per-day MGrid roll-up, then HA(k)
    * model error and test-day real error from it.
    */
  private def evalSlot(s: Int, groups: Evaluator.MGrids): SlotEval = {
    val spec = groups.spec
    val n = spec.n
    val mgridOf = spec.mgridOf
    val expr = groups.exprErr(alpha, s)
    // cum(i·n + mg): MGrid mg's count summed over days [day0, day0 + i)
    val cum = new Array[Long]((days + 1) * n)
    for (i <- 0 until days) {
      System.arraycopy(cum, i * n, cum, (i + 1) * n, n)
      addDay(s, day0 + i, mgridOf, cum, (i + 1) * n)
    }
    def row(d: Int): Int = math.min(days, math.max(0, d - day0))
    // MGrid mg's count summed over days [from, until)
    def window(mg: Int, from: Int, until: Int): Long = cum(row(until) * n + mg) - cum(row(from) * n + mg)
    def pred(mt: ModelTier, d: Int, mg: Int): Double = window(mg, d - mt.k, d).toDouble / mt.k

    // model error (Eq. 20): mean over valDays of Σ_i |λ̂_i − λ_i|
    val modelErr = cfg.models.map { mt =>
      mt.name -> cfg.valDays.map { d =>
        var e = 0.0
        var mg = 0
        while (mg < n) { e += math.abs(pred(mt, d, mg) - window(mg, d, d + 1)); mg += 1 }
        e
      }.sum / cfg.valDays.size
    }.toMap

    // real error on the test day: Σ_ij |λ̂_i/m_i − λ_ij| over every HGrid
    val base = at(cfg.testDay, s)
    val realErr = cfg.models.map { mt =>
      mt.name -> (if (!cfg.computeReal) 0.0 else {
        val share = Array.tabulate(n)(mg => pred(mt, cfg.testDay, mg) / spec.cellsPerM(mg))
        val c = cube
        var e = 0.0
        var h = 0
        while (h < cells) { e += math.abs(share(mgridOf(h)) - c(base + h)); h += 1 }
        e
      })
    }.toMap
    SlotEval(s, expr, modelErr, realErr)
  }

  /** Test-day HA(k) predictions per slot as a dense per-MGrid array
    * (index = mcx·nSide + mcy) — the dispatch simulator's demand signal.
    */
  def testPredictions(nSide: Int, model: ModelTier): Map[Int, Array[Double]] = {
    require(day0 == 0 || cfg.testDay - model.k >= day0,
      s"${model.name} reads days before $day0, the first day this evaluator counts")
    demand(nSide, cfg.testDay - model.k, cfg.testDay, model.k)
  }

  /** Test-day *actual* per-MGrid counts — the paper's "using real order
    * data" dispatch variant (model error zero by construction).
    */
  def testActuals(nSide: Int): Map[Int, Array[Double]] =
    demand(nSide, cfg.testDay, cfg.testDay + 1, 1)

  /** Per-slot MGrid counts summed over days [from, until), divided by `div`. */
  private def demand(nSide: Int, from: Int, until: Int, div: Int): Map[Int, Array[Double]] = {
    val spec = GridSpec(nSide, hSide)
    (0 until slots).map { s =>
      val sum = new Array[Long](spec.n)
      for (d <- math.max(from, day0) until until) addDay(s, d, spec.mgridOf, sum, 0)
      s -> sum.map(_.toDouble / div)
    }.toMap
  }
}

object Evaluator {

  /** Per-slot expression-error totals Σ_i Σ_j E_e from a dense α array
    * (index slot·N + HGrid id), by the routine the evaluator runs in each
    * slot task: one [[ExpressionError.mgridTotal]] call per MGrid on its
    * non-zero α in HGrid-id order, summed in MGrid order.
    *
    * Slots run on up to `parallelism` threads, busiest first. Each slot's
    * sum is computed by one thread in a fixed order, so the result is
    * bitwise independent of `parallelism`. Every thread is joined before
    * this returns.
    */
  def exprErrPerSlot(alpha: Array[Double], spec: GridSpec, parallelism: Int): Array[Double] = {
    val cells = spec.totalHGrids
    val slots = alpha.length / cells
    require(slots * cells == alpha.length, s"α length ${alpha.length} is not a multiple of $cells")
    val groups = new MGrids(spec)
    val order = busiestFirst(alpha, cells)
    val out = new Array[Double](slots)
    parallelFor(slots, parallelism) { i =>
      val s = order(i)
      out(s) = groups.exprErr(alpha, s)
    }
    out
  }

  /** HGrid ids grouped by MGrid with a counting sort: MGrid mg owns
    * `byM(start(mg) until start(mg + 1))`, in HGrid-id order.
    */
  private final class MGrids(val spec: GridSpec) {
    private val mgridOf = spec.mgridOf
    private val cellsPerM = spec.cellsPerM
    private val start = cellsPerM.scanLeft(0)(_ + _)
    private val byM = countingSort(mgridOf, start)
    private val maxM = cellsPerM.max

    /** Slot `s`'s expression error: [[ExpressionError.mgridTotal]] per
      * MGrid with a non-zero α, summed in MGrid order.
      */
    def exprErr(alpha: Array[Double], s: Int): Double = {
      val base = s * mgridOf.length
      val as = new Array[Double](maxM)
      var e = 0.0
      var mg = 0
      while (mg < cellsPerM.length) {
        var k = 0
        var j = start(mg)
        while (j < start(mg + 1)) {
          val a = alpha(base + byM(j))
          if (a > 0) { as(k) = a; k += 1 }
          j += 1
        }
        if (k > 0) e += ExpressionError.mgridTotal(java.util.Arrays.copyOf(as, k), cellsPerM(mg))
        mg += 1
      }
      e
    }
  }

  /** Indices of `key` stably sorted by key, where key k's block starts at
    * `start(k)`.
    */
  private def countingSort(key: Array[Int], start: Array[Int]): Array[Int] = {
    val next = start.clone()
    val sorted = new Array[Int](key.length)
    var i = 0
    while (i < key.length) { sorted(next(key(i))) = i; next(key(i)) += 1; i += 1 }
    sorted
  }

  /** Slot ids by descending total α, so the busiest slot starts first. */
  private def busiestFirst(alpha: Array[Double], cells: Int): Array[Int] = {
    val total = Array.tabulate(alpha.length / cells)(s => alpha.slice(s * cells, (s + 1) * cells).sum)
    total.indices.toArray.sortBy(s => -total(s))
  }

  /** [[GridCounts.cellIdx]] on one coordinate. */
  private def cellIdx(c: Double, side: Int): Int =
    math.min(side - 1, math.max(0, math.floor(c * side).toLong.toInt))

  /** The sorted distinct values of `a` (sorted in place), each with its
    * number of occurrences, packed as value << 32 | count.
    */
  private def runLengths(a: Array[Int]): Array[Long] = {
    java.util.Arrays.sort(a)
    val out = new Array[Long](a.length)
    var k = 0
    var i = 0
    while (i < a.length) {
      var j = i + 1
      while (j < a.length && a(j) == a(i)) j += 1
      out(k) = (a(i).toLong << 32) | (j - i)
      k += 1
      i = j
    }
    java.util.Arrays.copyOf(out, k)
  }

  /** Runs `body(0 until tasks)` on the calling thread plus up to
    * `parallelism − 1` helpers, which take the next index as they finish.
    * Rethrows the first failure after all helpers have been joined.
    */
  private def parallelFor(tasks: Int, parallelism: Int)(body: Int => Unit): Unit = {
    require(parallelism >= 1, s"parallelism must be >= 1, got $parallelism")
    val next = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]()
    val work: Runnable = () => {
      var i = next.getAndIncrement()
      while (i < tasks && failure.get == null) {
        try body(i) catch { case t: Throwable => failure.compareAndSet(null, t) }
        i = next.getAndIncrement()
      }
    }
    val helpers = Seq.fill(math.min(parallelism, tasks) - 1)(new Thread(work, "evaluator"))
    helpers.foreach { t => t.setDaemon(true); t.start() }
    work.run()
    helpers.foreach(_.join())
    Option(failure.get).foreach(t => throw t)
  }
}

package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

import org.apache.spark.sql.{DataFrame, Encoders, SparkSession}
import org.apache.spark.sql.functions.{col, shiftleft}
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
  * Spark runs one pass here: the HGrid counting pass (`GridCounts.at`),
  * cached so that a later evaluator over the same events reuses it. The
  * first evaluation collects those counts into a dense day × slot × HGrid
  * array, the count cube; every grid size is then computed from the cube
  * in the JVM: α, the per-day MGrid roll-up, HA(k) model error (Eq. 20),
  * test-day real error and the expression-error kernel. Search algorithms
  * pay one evaluation per *distinct* grid size they visit — the cost unit
  * of the paper's Table IV.
  *
  * @param parallelism threads of the expression-error kernel; results do
  *                    not depend on it (see [[Evaluator.exprErrPerSlot]])
  */
final class Evaluator(spark: SparkSession, events: DataFrame, val cfg: EvalConfig, parallelism: Int) {

  /** Kernel parallelism = the session's default parallelism. */
  def this(spark: SparkSession, events: DataFrame, cfg: EvalConfig) =
    this(spark, events, cfg, spark.sparkContext.defaultParallelism)

  private val cache = mutable.Map.empty[Int, Map[Int, SlotEval]]

  /** Cumulative wall time spent in cache-missing evaluations. The first one
    * includes collecting the count cube, and the Spark counting pass unless
    * an earlier evaluator over the same events cached it.
    */
  var wallNanos: Long = 0L
  def evalCount: Int = cache.size

  /** All-slot evaluation of one grid size (memoized). */
  def apply(nSide: Int): Map[Int, SlotEval] =
    cache.getOrElseUpdate(nSide, {
      val t0 = System.nanoTime()
      val r = compute(nSide)
      wallNanos += System.nanoTime() - t0
      r
    })

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
  private val day0 = math.max(0, math.min(cfg.testDay - cfg.trainWindow,
    cfg.valDays.min - cfg.models.map(_.k).max))
  private val days = cfg.testDay - day0 + 1

  private lazy val counts: DataFrame = GridCounts.at(events, hSide).cache()

  /** HGrid counts of days [day0, testDay] at index
    * ((day − day0)·slots + slot)·N + HGrid id; absent cells are zeros.
    */
  private lazy val cube: Array[Int] = {
    val idx = ((col("day") - day0) * slots + col("slot")) * cells + col("cx") * hSide + col("cy")
    val packed = counts
      .where(col("day").between(day0, cfg.testDay))
      .select((shiftleft(idx.cast("long"), 32) + col("cnt")).as("v"))
      .as(Encoders.scalaLong)
      .collect()
    val c = new Array[Int](days * slots * cells)
    packed.foreach(v => c((v >>> 32).toInt) = v.toInt)
    c
  }

  private def at(day: Int, slot: Int): Int = ((day - day0) * slots + slot) * cells

  /** α per (slot, HGrid) at index slot·N + HGrid id: the mean count over
    * the train window [testDay − trainWindow, testDay).
    */
  private lazy val alpha: Array[Double] = {
    val a = new Array[Double](slots * cells)
    for (s <- 0 until slots; h <- 0 until cells) {
      var sum = 0L
      for (d <- cfg.testDay - cfg.trainWindow until cfg.testDay) sum += cube(at(d, s) + h)
      a(s * cells + h) = sum / cfg.trainWindow.toDouble
    }
    a
  }

  /** Drop the cached HGrid counts. */
  def close(): Unit = counts.unpersist()

  /** Adds `slot`'s HGrid counts of `day` into `out(off + MGrid id)`. */
  private def addDay(slot: Int, day: Int, mgridOf: Array[Int], out: Array[Long], off: Int): Unit = {
    val base = at(day, slot)
    var h = 0
    while (h < cells) { out(off + mgridOf(h)) += cube(base + h); h += 1 }
  }

  private def compute(nSide: Int): Map[Int, SlotEval] = {
    val spec = GridSpec(nSide, hSide)
    val n = spec.n
    val mgridOf = spec.mgridOf
    val expr = Evaluator.exprErrPerSlot(alpha, spec, parallelism)
    // cum(i·n + mg): MGrid mg's count summed over days [day0, day0 + i)
    val cum = new Array[Long]((days + 1) * n)
    def row(d: Int): Int = math.min(days, math.max(0, d - day0))
    (0 until slots).map { s =>
      for (i <- 0 until days) {
        System.arraycopy(cum, i * n, cum, (i + 1) * n, n)
        addDay(s, day0 + i, mgridOf, cum, (i + 1) * n)
      }
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
          var e = 0.0
          var h = 0
          while (h < cells) { e += math.abs(share(mgridOf(h)) - cube(base + h)); h += 1 }
          e
        })
      }.toMap
      s -> SlotEval(s, expr(s), modelErr, realErr)
    }.toMap
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
    * (index slot·N + HGrid id): one [[ExpressionError.mgridTotal]] call per
    * (slot, MGrid) on its non-zero α, in HGrid-id order.
    *
    * The groups run on up to `parallelism` threads, largest first, so one
    * big group does not finish last. Each group's total lands in its own
    * cell and the cells are summed per slot in MGrid order, so the result
    * is bitwise independent of `parallelism`. Every thread is joined
    * before this returns.
    */
  def exprErrPerSlot(alpha: Array[Double], spec: GridSpec, parallelism: Int): Array[Double] = {
    val cells = spec.totalHGrids
    val n = spec.n
    val slots = alpha.length / cells
    require(slots * cells == alpha.length, s"α length ${alpha.length} is not a multiple of $cells")
    val mgridOf = spec.mgridOf
    // HGrid ids sorted by MGrid: MGrid mg owns byM(start(mg) until start(mg + 1))
    val byM = Array.range(0, cells).sortBy(mgridOf(_))
    val start = spec.cellsPerM.scanLeft(0)(_ + _)
    val nonZero = new Array[Int](slots * n)
    for (s <- 0 until slots; h <- 0 until cells if alpha(s * cells + h) > 0)
      nonZero(s * n + mgridOf(h)) += 1
    val groups = (0 until slots * n).filter(nonZero(_) > 0).sortBy(g => -nonZero(g))
    val total = new Array[Double](slots * n)
    parallelFor(groups.size, parallelism) { i =>
      val g = groups(i)
      val (s, mgrid) = (g / n, g % n)
      val as = new Array[Double](nonZero(g))
      var k = 0
      for (j <- start(mgrid) until start(mgrid + 1)) {
        val a = alpha(s * cells + byM(j))
        if (a > 0) { as(k) = a; k += 1 }
      }
      total(g) = ExpressionError.mgridTotal(as, spec.cellsPerM(mgrid))
    }
    Array.tabulate(slots)(s => (0 until n).foldLeft(0.0)((acc, mgrid) => acc + total(s * n + mgrid)))
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
    val helpers = Seq.fill(math.min(parallelism, tasks) - 1)(new Thread(work, "expression-error"))
    helpers.foreach { t => t.setDaemon(true); t.start() }
    work.run()
    helpers.foreach(_.join())
    Option(failure.get).foreach(t => throw t)
  }
}

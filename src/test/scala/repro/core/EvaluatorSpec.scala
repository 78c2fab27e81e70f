package repro.core

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{CityConfig, EventGen, GridCounts}
import repro.model.ModelTier

/** Integration tests of the Algorithm-3 evaluator on the toy city. */
class EvaluatorSpec extends SparkSpec {

  private lazy val toy = CityConfig.toy // 12 days, 600 orders/day, genSide 16
  private lazy val events = EventGen.eventsDf(spark, toy).cache()

  private val tiers =
    Seq(ModelTier("lastday", 1), ModelTier("ha3", 3), ModelTier("ha8", 8))

  private def mkEval(computeReal: Boolean = true) =
    new Evaluator(spark, events,
      EvalConfig(nTargetSide = 16, models = tiers, testDay = 11,
        valDays = Seq(9, 10), trainWindow = 8, computeReal = computeReal))

  private lazy val ev = mkEval()
  private lazy val e2 = ev(2)
  private lazy val e4 = ev(4)
  private lazy val e8 = ev(8)
  private lazy val e16 = ev(16)

  private def total(r: Map[Int, SlotEval])(f: SlotEval => Double): Double =
    r.values.map(f).sum

  test("memoization: repeated evaluation costs nothing") {
    val before = ev.evalCount
    ev(4); ev(4)
    assert(ev.evalCount == before || ev.evalCount == before + 1)
    val c = ev.evalCount
    ev(4)
    assert(ev.evalCount == c)
  }

  test("expression error decreases as n grows (paper Fig. 3)") {
    val x2 = total(e2)(_.exprErr)
    val x4 = total(e4)(_.exprErr)
    val x8 = total(e8)(_.exprErr)
    assert(x2 > x4 && x4 > x8, s"expr: $x2, $x4, $x8")
  }

  test("expression error vanishes at n = N (m = 1)") {
    assert(total(e16)(_.exprErr) == 0.0)
  }

  test("model error increases as n grows (paper Fig. 4, Eq. 20)") {
    for (t <- tiers) {
      val m2 = total(e2)(_.modelErr(t.name))
      val m8 = total(e8)(_.modelErr(t.name))
      val m16 = total(e16)(_.modelErr(t.name))
      assert(m2 < m8 && m8 < m16, s"${t.name}: $m2, $m8, $m16")
    }
  }

  test("model accuracy ladder: lastday > ha3 > ha8 model error") {
    for (r <- Seq(e4, e8)) {
      val m = tiers.map(t => total(r)(_.modelErr(t.name)))
      assert(m(0) > m(1) && m(1) > m(2), s"ladder: $m")
    }
  }

  test("Theorem II.1: real error below its upper bound (summed over slots)") {
    for (r <- Seq(e2, e4, e8); t <- tiers) {
      val real = total(r)(_.realErr(t.name))
      val upper = total(r)(s => s.upper(t.name))
      assert(real <= upper * 1.05 + 1e-6, s"${t.name}: real=$real upper=$upper")
    }
  }

  test("real error is positive wherever there is demand") {
    assert(total(e4)(_.realErr("ha3")) > 0.0)
  }

  test("upper() = exprErr + modelErr") {
    val s = e4.values.head
    for (t <- tiers)
      assert(s.upper(t.name) == s.exprErr + s.modelErr(t.name))
  }

  test("objective() matches the evaluated upper bound") {
    val slot = 37
    val f = ev.objective(slot, tiers(1))
    assert(f(4) == e4(slot).upper("ha3"))
  }

  test("computeReal=false skips real error but keeps the bound") {
    val fast = mkEval(computeReal = false)
    val r = fast(4)
    assert(r.values.forall(_.realErr.values.forall(_ == 0.0)))
    val slot = r.keys.head
    assert(math.abs(r(slot).upper("ha3") - e4(slot).upper("ha3")) < 1e-6)
  }

  /** Relative agreement to 1e-9 (exact when either side is 0). */
  private def assertClose(what: String, got: Double, want: Double): Unit =
    assert(math.abs(got - want) <= 1e-9 * math.max(math.abs(got), math.abs(want)),
      s"$what: got $got, want $want")

  private lazy val hCounts = GridCounts.at(events, 16)
  private val slots = 0 until CityConfig.Slots
  private val tierRows = tiers.map(t => s"('${t.name}', ${t.k})").mkString(", ")

  /** DuckDB rows (slot, tier, value) as a map with absent entries 0. */
  private def bySlotTier(sql: String, tables: (String, DataFrame)*): Map[(Int, String), Double] =
    Oracle.query(sql, tables: _*)._2
      .map(r => (r.getAs[Number](0).intValue, r.getString(1)) -> r.getAs[Number](2).doubleValue)
      .toMap
      .withDefaultValue(0.0)

  test("Eq. 20: per-slot model error equals Σ_i mean_d |λ̂_i − λ_i| (DuckDB)") {
    // independent re-computation of every tier's model error via SQL, at a
    // dividing (4) and a non-dividing (3, m varies) grid size
    for (n <- Seq(4, 3)) {
      val want = bySlotTier(
        s"""WITH mc AS (
          |  SELECT CAST(day AS INT) AS day, CAST(slot AS INT) AS slot, CAST(cx AS INT) AS cx,
          |    CAST(cy AS INT) AS cy, CAST(cnt AS DOUBLE) AS cnt FROM m
          |), grid AS (
          |  SELECT DISTINCT slot, cx, cy FROM mc
          |), days(d) AS (VALUES (9), (10)),
          |tiers(tier, k) AS (VALUES $tierRows),
          |vals AS (
          |  SELECT g.slot, t.tier,
          |    COALESCE((SELECT SUM(cnt) FROM mc
          |      WHERE mc.day BETWEEN days.d - t.k AND days.d - 1
          |        AND mc.slot = g.slot AND mc.cx = g.cx AND mc.cy = g.cy), 0) / t.k AS pred,
          |    COALESCE((SELECT SUM(cnt) FROM mc
          |      WHERE mc.day = days.d
          |        AND mc.slot = g.slot AND mc.cx = g.cx AND mc.cy = g.cy), 0) AS act
          |  FROM grid g CROSS JOIN days CROSS JOIN tiers t
          |)
          |SELECT slot, tier, SUM(ABS(pred - act)) / 2.0 AS me
          |FROM vals GROUP BY 1, 2""".stripMargin,
        "m" -> GridCounts.rollupTo(hCounts, 16, n))
      val got = ev(n)
      for (s <- slots; t <- tiers)
        assertClose(s"n=$n slot=$s ${t.name}", got(s).modelErr(t.name), want((s, t.name)))
    }
  }

  test("real error equals Σ_ij |λ̂_i/m_i − λ_ij| over every HGrid (DuckDB)") {
    for (n <- Seq(3, 4, 16)) {
      val want = bySlotTier(
        s"""WITH c AS (
          |  SELECT CAST(day AS INT) AS day, CAST(slot AS INT) AS slot, CAST(cx AS INT) AS cx,
          |    CAST(cy AS INT) AS cy, CAST(cnt AS DOUBLE) AS cnt FROM h
          |), lat AS (
          |  SELECT CAST(a.i AS INT) AS cx, CAST(b.j AS INT) AS cy,
          |    LEAST($n - 1, CAST(a.i AS INT) * $n // 16) AS mcx,
          |    LEAST($n - 1, CAST(b.j AS INT) * $n // 16) AS mcy
          |  FROM range(16) AS a(i), range(16) AS b(j)
          |), msize AS (
          |  SELECT mcx, mcy, COUNT(*) AS m FROM lat GROUP BY 1, 2
          |), tiers(tier, k) AS (VALUES $tierRows),
          |pred AS (
          |  SELECT c.slot, l.mcx, l.mcy, t.tier, SUM(c.cnt) / t.k AS p
          |  FROM c JOIN lat l ON c.cx = l.cx AND c.cy = l.cy CROSS JOIN tiers t
          |  WHERE c.day BETWEEN 11 - t.k AND 10
          |  GROUP BY c.slot, l.mcx, l.mcy, t.tier, t.k
          |), test AS (
          |  SELECT slot, cx, cy, cnt FROM c WHERE day = 11
          |), slots AS (
          |  SELECT CAST(i AS INT) AS slot FROM range(${CityConfig.Slots}) AS r(i)
          |)
          |SELECT s.slot, t.tier, SUM(ABS(COALESCE(p.p, 0) / ms.m - COALESCE(x.cnt, 0))) AS re
          |FROM slots s CROSS JOIN lat l CROSS JOIN tiers t
          |JOIN msize ms ON ms.mcx = l.mcx AND ms.mcy = l.mcy
          |LEFT JOIN pred p ON p.slot = s.slot AND p.mcx = l.mcx AND p.mcy = l.mcy AND p.tier = t.tier
          |LEFT JOIN test x ON x.slot = s.slot AND x.cx = l.cx AND x.cy = l.cy
          |GROUP BY 1, 2""".stripMargin,
        "h" -> hCounts)
      val got = ev(n)
      for (s <- slots; t <- tiers)
        assertClose(s"n=$n slot=$s ${t.name}", got(s).realErr(t.name), want((s, t.name)))
    }
  }

  test("expression error equals ExpressionError.totalPerSlot for every √n in 1..16") {
    val alphaDf = GridCounts.alpha(hCounts, 11 - 8, 11)
    for (n <- 1 to 16) {
      val want = ExpressionError.totalPerSlot(spark, alphaDf, GridSpec(n, 16))
        .collect()
        .map(r => r.getInt(0) -> r.getDouble(1))
        .toMap
        .withDefaultValue(0.0)
      val got = ev(n)
      for (s <- slots) assertClose(s"n=$n slot=$s", got(s).exprErr, want(s))
    }
  }

  test("SlotEvals are bitwise identical at parallelism 1, 3 and 4") {
    val byP = Seq(1, 3, 4).map(p => p -> new Evaluator(spark, events, ev.cfg, parallelism = p))
    for (n <- Seq(1, 3, 5, 8, 16)) {
      val want = byP.head._2(n)
      for ((p, e) <- byP) {
        assert(e(n) == want, s"n=$n parallelism=$p")
        val kernel = Evaluator.exprErrPerSlot(ev.alpha, GridSpec(n, 16), p)
        for (s <- slots) assert(kernel(s) == want(s).exprErr, s"exprErrPerSlot n=$n parallelism=$p slot=$s")
      }
    }
  }

  test("concurrent callers share the memo: same SlotEvals, one evaluation per size") {
    val sizes = Seq(1, 2, 3, 4, 5, 8)
    val want = sizes.map(n => n -> ev(n)).toMap
    val shared = new Evaluator(spark, events, ev.cfg)
    val start = new CountDownLatch(1)
    val results = new ConcurrentLinkedQueue[(Int, Map[Int, SlotEval])]()
    val failures = new ConcurrentLinkedQueue[Throwable]()
    val threads = (0 until 4).map { t =>
      // every thread visits each size twice: first all in the same order,
      // so they contend for one size at a time, then from different starts
      val mine = sizes ++ (sizes.drop(t) ++ sizes.take(t)).reverse
      new Thread(() => {
        start.await()
        try mine.foreach(n => results.add(n -> shared(n)))
        catch { case e: Throwable => failures.add(e) }
      })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(failures.isEmpty, failures)
    assert(results.size == 4 * 2 * sizes.size)
    results.forEach { case (n, r) => assert(r == want(n), s"n=$n") }
    assert(shared.evalCount == sizes.size)
    assert(shared.wallNanos > 0)
  }

  test("count cube equals GridCounts.at as a dense array at 1 and 7 event partitions") {
    val want = new Array[Int](ev.cube.length)
    for (r <- hCounts.where(col("day").between(ev.day0, 11)).collect()) {
      val i = ((r.getInt(0) - ev.day0) * CityConfig.Slots + r.getInt(1)) * 256 + r.getInt(2) * 16 + r.getInt(3)
      want(i) = r.getLong(4).toInt
    }
    assert(ev.cube.sameElements(want))
    for (p <- Seq(1, 7)) {
      val other = new Evaluator(spark, events.repartition(p), ev.cfg)
      assert(other.cube.sameElements(want), s"$p partitions")
      assert(other(3) == ev(3), s"$p partitions")
    }
  }

  test("first evaluation runs one Spark job with no shuffle; later sizes run none") {
    events.count()
    val sc = spark.sparkContext
    val jobs = new AtomicInteger()
    val shuffleBytes = new AtomicLong()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try {
      val fresh = mkEval()
      fresh(4)
      ListenerBusAccess.drain(sc)
      assert(jobs.get == 1, "jobs in the first apply")
      assert(shuffleBytes.get == 0L, "shuffle bytes written")
      Seq(1, 2, 8, 16).foreach(fresh(_))
      ListenerBusAccess.drain(sc)
      assert(jobs.get == 1, "jobs after later applys")
    } finally sc.removeSparkListener(listener)
  }

  test("α window before every HA(k) window: ha4-only expression error is unchanged") {
    // ha4 alone reads days 5–10; the α window [3, 11) starts earlier
    val ha4 = new Evaluator(spark, events, ev.cfg.copy(models = Seq(ModelTier("ha4", 4))))
    for (n <- Seq(2, 4); s <- slots)
      assert(ha4(n)(s).exprErr == ev(n)(s).exprErr, s"n=$n slot=$s")
  }

  test("testPredictions: dense arrays with the right shape and mass") {
    val preds = ev.testPredictions(4, tiers(2)) // ha8
    assert(preds.nonEmpty)
    assert(preds.values.forall(_.length == 16))
    assert(preds.values.forall(_.forall(_ >= 0.0)))
    val slotTotal = preds.map { case (_, a) => a.sum }.sum
    val expect = toy.dailyOrders
    assert(math.abs(slotTotal - expect) / expect < 0.2, s"pred mass=$slotTotal")
    // every MGrid against the rollupTo-based HA(k) sum
    for (n <- Seq(3, 4); t <- tiers) {
      val want = GridCounts.rollupTo(hCounts, 16, n)
        .where(col("day").between(11 - t.k, 10))
        .groupBy(col("slot"), col("cx"), col("cy"))
        .agg(sum(col("cnt")))
        .collect()
        .map(r => (r.getInt(0), r.getInt(1) * n + r.getInt(2)) -> r.getLong(3).toDouble / t.k)
        .toMap
      val got = ev.testPredictions(n, t)
      assert(want.keySet.forall { case (s, _) => got.contains(s) })
      for ((s, pred) <- got; mgrid <- pred.indices)
        assertClose(s"n=$n ${t.name} slot=$s mgrid=$mgrid", pred(mgrid), want.getOrElse((s, mgrid), 0.0))
    }
  }

  test("testActuals matches the test-day counts") {
    val act = ev.testActuals(4)
    val direct = GridCounts
      .rollupTo(GridCounts.at(events, 16), 16, 4)
      .where(col("day") === 11)
      .agg(sum("cnt")).head.getLong(0)
    assert(math.abs(act.values.map(_.sum).sum - direct) < 1e-9)
  }

  test("EvalConfig validation") {
    assertThrows[IllegalArgumentException] {
      EvalConfig(16, tiers, testDay = 5, valDays = Seq(9), trainWindow = 2)
    }
    assertThrows[IllegalArgumentException] {
      EvalConfig(16, tiers, testDay = 11, valDays = Seq.empty, trainWindow = 2)
    }
    assertThrows[IllegalArgumentException] {
      EvalConfig(16, tiers, testDay = 11, valDays = Seq(9), trainWindow = 20)
    }
  }
}

package perfbench

import org.apache.spark.sql.DataFrame
import repro.core.{ExpressionError, GridSpec}
import repro.data.GridCounts
import repro.exp.Experiments.{Env, NTargetSide, TestDay, TrainWindow}

import scala.collection.mutable

/** Per-layer metrics of one traced pass, named after the `repro.*` modules. */
object Layers {

  /** √n values whose per-size spans are reported (`*.n<k>`). */
  val ReportedSizes: Seq[Int] = Seq(1, 2, 4, 8, 16, 32)

  /** Every per-layer metric in output order, with its unit. */
  val Units: Seq[(String, String)] = Seq(
    "eventgen.s" -> "s", "eventgen.events" -> "count", "eventgen.cpu_util" -> "ratio",
    "counts.s" -> "s", "counts.rows" -> "count", "counts.shuffle_mb" -> "MB",
    "alpha.s" -> "s", "alpha.rows" -> "count",
    "expr.s" -> "s") ++ ReportedSizes.map(k => s"expr.s.n$k" -> "s") ++ Seq(
    "expr.hgrids" -> "count", "expr.groups" -> "count", "expr.terms" -> "count",
    "expr.ns_per_term" -> "ns", "expr.max_group_share.n1" -> "ratio",
    "expr.alpha_repeat_share" -> "ratio", "expr.st_s.n1" -> "s", "expr.parallel_eff.n1" -> "ratio",
    "eval.s" -> "s") ++ ReportedSizes.map(k => s"eval.s.n$k" -> "s") ++ Seq(
    "eval.other_s" -> "s", "eval.demand_s" -> "s",
    "eval.spark_jobs" -> "count", "eval.spark_tasks" -> "count", "eval.shuffle_mb" -> "MB",
    "eval.count" -> "count", "eval.probes" -> "count", "eval.memo_hit_ratio" -> "ratio",
    "eval.count.ternary" -> "count", "eval.probes.ternary" -> "count", "eval.memo_hit_ratio.ternary" -> "ratio",
    "eval.count.iterative" -> "count", "eval.probes.iterative" -> "count",
    "eval.memo_hit_ratio.iterative" -> "ratio",
    "search.s.ternary" -> "s", "search.s.iterative" -> "s",
    "search.evals.ternary" -> "count", "search.evals.iterative" -> "count", "search.self_s" -> "s",
    "dispatch.orders_s" -> "s", "dispatch.sim_s" -> "s", "dispatch.sim_calls" -> "count",
    "dispatch.sim_ms.p50" -> "ms", "dispatch.sim_ms.p99" -> "ms",
    "exp.self_s" -> "s", "jvm.gc_s" -> "s", "jvm.cpu_s" -> "s", "jvm.cpu_util" -> "ratio",
    "jvm.peak_rss_mb" -> "MB",
    "trace.wall_s" -> "s")

  /** Window half-width of `ExpressionError.auto` (its private `Z`). */
  private val Z = 12.0

  /** Terms `ExpressionError.auto(a, b, m)` evaluates: its Pois(a) window
    * (one `exp` and one `log` each) plus its Pois(b) window (one `exp` and
    * one `lgamma` each). Computed from the bounds, not counted.
    */
  def windowTerms(a: Double, b: Double, m: Int): Long =
    if (m == 1 || a == 0.0) 0L
    else {
      val aTerms = math.ceil(a + Z * math.sqrt(a + 1) + 10).toLong + 1
      val bTerms =
        if (b == 0.0) 1L
        else math.ceil(b + Z * math.sqrt(b + 1) + 10).toLong -
          math.max(0L, math.floor(b - Z * math.sqrt(b + 1) - 10).toLong) + 1
      aTerms + bTerms
    }

  /** Kernel work at one grid size, computed from the collected α. */
  final case class Kernel(hgrids: Long, groups: Long, terms: Long, maxGroupTerms: Long, repeats: Long)

  def kernel(alpha: Array[(Int, Int, Int, Double)], nSide: Int): Kernel = {
    val spec = GridSpec(nSide, NTargetSide)
    val groups = alpha.groupBy(r => (r._1, spec.mgridId(r._2, r._3)))
    var terms, maxTerms, repeats = 0L
    groups.foreach { case ((_, mgrid), rows) =>
      val as = rows.map(_._4)
      val total = as.sum
      val m = spec.cellsPerM(mgrid)
      val t = as.iterator.map(a => windowTerms(a, total - a, m)).sum
      terms += t
      maxTerms = math.max(maxTerms, t)
      repeats += as.groupBy(identity).valuesIterator.filter(_.length > 1).map(_.length.toLong).sum
    }
    Kernel(alpha.length.toLong, groups.size.toLong, terms, maxTerms, repeats)
  }

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Times the stages the Evaluator keeps private, outside `wall_s`:
    * HGrid counts, α, `totalPerSlot` at each distinct size the pass
    * evaluated, and `mgridTotal` at √n = 1 on this thread alone.
    * The caller releases the cached frames afterwards.
    */
  def probe(env: Env, t: Tracer, pass: Pass, threads: Int): Map[String, Double] = {
    val (counts, countRows) = t("GridCounts.at") {
      val c = GridCounts.at(env.events, NTargetSide).cache()
      (c, c.count())
    }
    val (alphaDf, alphaRows) = t("GridCounts.alpha") {
      val a: DataFrame = GridCounts.alpha(counts, TestDay - TrainWindow, TestDay).cache()
      (a, a.count())
    }
    val alpha = alphaDf.collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(2), r.getDouble(3)))

    val distinct = pass.evaluated.distinct.sorted
    val exprS = distinct.map { n =>
      val t0 = System.nanoTime()
      t("ExpressionError.totalPerSlot", s"n=$n")(
        ExpressionError.totalPerSlot(env.spark, alphaDf, GridSpec(n, NTargetSide)).collect())
      n -> secs(t0)
    }.toMap
    val kernels = distinct.map(n => n -> kernel(alpha, n)).toMap
    def overEvaluated(f: Kernel => Long): Double = pass.evaluated.map(n => f(kernels(n))).sum.toDouble

    val m = mutable.LinkedHashMap.empty[String, Double]
    m("counts.rows") = countRows.toDouble
    m("alpha.rows") = alphaRows.toDouble
    m("expr.s") = pass.evaluated.map(exprS).sum
    ReportedSizes.foreach(k => m(s"expr.s.n$k") = exprS.getOrElse(k, 0.0))
    m("expr.hgrids") = overEvaluated(_.hgrids)
    m("expr.groups") = overEvaluated(_.groups)
    m("expr.terms") = overEvaluated(_.terms)
    val hgrids = m("expr.hgrids")
    m("expr.alpha_repeat_share") = if (hgrids > 0) overEvaluated(_.repeats) / hgrids else 0.0
    kernels.get(1) match {
      case Some(k1) =>
        val m1 = GridSpec(1, NTargetSide).cellsPerM(0)
        val bySlot = alpha.groupBy(_._1).values.map(_.map(_._4)).toSeq
        val t0 = System.nanoTime()
        t("ExpressionError.mgridTotal", "n=1 single-thread")(bySlot.foreach(ExpressionError.mgridTotal(_, m1)))
        val st = secs(t0)
        m("expr.st_s.n1") = st
        m("expr.ns_per_term") = st * 1e9 / k1.terms
        m("expr.max_group_share.n1") = k1.maxGroupTerms.toDouble / k1.terms
        m("expr.parallel_eff.n1") = st / (exprS(1) * threads)
      case None =>
        Seq("expr.st_s.n1", "expr.ns_per_term", "expr.max_group_share.n1", "expr.parallel_eff.n1")
          .foreach(m(_) = 0.0)
    }
    m.toMap
  }

  /** Nearest-rank percentile of a sorted array. */
  def percentile(sorted: Array[Double], p: Double): Double =
    if (sorted.isEmpty) 0.0
    else sorted(math.max(0, math.ceil(p * sorted.length).toInt - 1))

  /** Per-layer metrics from the spans of one traced run.
    *
    * @param probes  [[probe]]'s results
    * @param extra   metrics taken outside the spans (JVM, event count)
    */
  def fromSpans(spans: Seq[Span], pass: Pass, probes: Map[String, Double],
                extra: Map[String, Double], threads: Int): Map[String, Double] = {
    def named(names: String*): Seq[Span] = spans.filter(s => names.contains(s.name))
    def s(ns: Long): Double = ns / 1e9
    val m = mutable.Map.empty[String, Double] ++ probes ++ extra

    val prepare = named("Experiments.prepare")
    m("eventgen.s") = s(prepare.map(_.ns).sum)
    m("eventgen.cpu_util") =
      if (prepare.isEmpty) 0.0 else prepare.map(_.taskCpuNs).sum.toDouble / (prepare.map(_.ns).sum * threads)
    m("counts.s") = s(named("GridCounts.at").map(_.ns).sum)
    m("counts.shuffle_mb") = named("GridCounts.at").map(_.shuffleBytes).sum / 1e6
    m("alpha.s") = s(named("GridCounts.alpha").map(_.ns).sum)

    val evals = named("Evaluator.apply", "Evaluator.objective")
    m("eval.s") = s(evals.map(_.ns).sum)
    ReportedSizes.foreach(k => m(s"eval.s.n$k") = s(evals.filter(_.tag == s"n=$k").map(_.ns).sum))
    m("eval.other_s") = m("eval.s") - m("expr.s")
    m("eval.demand_s") = s(named("Evaluator.testPredictions", "Evaluator.testActuals").map(_.ns).sum)
    val evalAll = named("Evaluator.apply", "Evaluator.objective", "Evaluator.testPredictions", "Evaluator.testActuals")
    m("eval.spark_jobs") = evalAll.map(_.jobs).sum.toDouble
    m("eval.spark_tasks") = evalAll.map(_.tasks).sum.toDouble
    m("eval.shuffle_mb") = evalAll.map(_.shuffleBytes).sum / 1e6

    for (suffix <- Seq("", ".ternary", ".iterative")) {
      val count = pass.counters.getOrElse(s"eval.count$suffix", 0.0)
      val probesN = pass.counters.getOrElse(s"eval.probes$suffix", 0.0)
      m(s"eval.count$suffix") = count
      m(s"eval.probes$suffix") = probesN
      m(s"eval.memo_hit_ratio$suffix") = if (probesN > 0) 1.0 - count / probesN else 0.0
    }
    for (method <- Seq("ternary", "iterative")) {
      m(s"search.s.$method") = s(named(s"Search.$method").map(_.ns).sum)
      m(s"search.evals.$method") = pass.counters.getOrElse(s"search.evals.$method", 0.0)
    }
    m("search.self_s") = s(named("Search.ternary", "Search.iterative").map(_.selfNs).sum)

    val sims = named("Dispatcher.run", "Dispatcher.servedOneSlot")
    val simMs = sims.map(_.ns / 1e6).toArray.sorted
    m("dispatch.orders_s") = s(named("Dispatcher.new").map(_.ns).sum)
    m("dispatch.sim_s") = simMs.sum / 1e3
    m("dispatch.sim_calls") = simMs.length.toDouble
    m("dispatch.sim_ms.p50") = percentile(simMs, 0.50)
    m("dispatch.sim_ms.p99") = percentile(simMs, 0.99)

    m("exp.self_s") = s(named("pass").map(_.selfNs).sum)
    Units.map { case (k, _) => k -> m.getOrElse(k, 0.0) }.toMap
  }
}

package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.data.GridCounts
import repro.exp.Experiments
import repro.exp.Experiments.Env

import scala.collection.mutable
import scala.io.Source
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The repository benchmark (see `perfbench/run.py`, which builds and
  * launches it).
  *
  *   --workload sweep-nyc|search-xian|dispatch-nyc  --seed N  --seconds S
  *   --trace 0|1  --out DIR  [--golden FILE] [--record-golden FILE]
  *   [--commit ID] [--source-sha256 HASH]
  *
  * A run sets the city up [[SetupReps]] times (fresh SparkSession plus
  * `Experiments.prepare` each time), then runs the workload's untimed
  * warm-up and timed passes until S seconds have passed; `wall_s` is the
  * passes' median. A pass takes 10 to 40 s, so with S below that every run
  * makes one pass and runs of two commits stay alike (Spark's status store,
  * and so `retained_mb`, grows with every pass). With `--trace 1` the passes
  * are traced, and the layer probes follow. The last stdout line is the
  * result.
  */
object Main {

  /** The first set-up of a JVM is cold; the median of three is a warm one. */
  val SetupReps = 3

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def session(threads: Int, localDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", (2 * threads).toString)
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", new File(localDir, "warehouse").getPath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Drops every frame a pass cached (HGrid counts and everything built on
    * them), keeping only the prepared events, so each pass starts alike.
    */
  private def release(env: Env): Unit = {
    val spark = env.spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
    val counts = GridCounts.at(env.events, Experiments.NTargetSide)
      .asInstanceOf[org.apache.spark.sql.classic.Dataset[_]]
    spark.sharedState.cacheManager.uncacheQuery(counts, cascade = true, blocking = true)
    val left = spark.sparkContext.getPersistentRDDs.size
    if (left != 1) throw new IllegalStateException(s"$left cached RDDs after release, expected only the events")
  }

  /** Heap in use after two full collections, in MB (10^6 bytes). */
  private def retainedMb(): Double = {
    System.gc()
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  private def cpuSeconds(): Double =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9

  private def peakRssMb(): Double = {
    val src = Source.fromFile("/proc/self/status")
    try src.getLines().find(_.startsWith("VmHWM:"))
      .map(_.split("\\s+")(1).toDouble / 1e3).getOrElse(0.0)
    finally src.close()
  }

  /** Runs one pass; an escaped throw fails the operations it did not count. */
  private def runPass(wl: Workload, env: Env, t: Tracer, c: Checks): Pass = {
    val before = c.attempted
    try t("pass", wl.name)(wl.pass(env, t, c))
    catch {
      case NonFatal(e) =>
        Console.err.println(s"[perfbench] ${wl.name} pass threw $e")
        val missing = wl.opsPerPass - (c.attempted - before)
        c.attempted += missing
        c.failed += missing
        Pass(Nil, Map.empty, Map.empty)
    }
  }

  private def parse(args: Array[String]): Map[String, String] = {
    require(args.length % 2 == 0 && args.grouped(2).forall(_(0).startsWith("--")),
      s"expected --key value pairs, got ${args.mkString(" ")}")
    args.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
  }

  def main(args: Array[String]): Unit = {
    val opt = parse(args)
    val wl = Workload.byName(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val traced = opt("trace") == "1"
    val out = new File(opt("out"))
    val recordGolden = opt.get("record-golden")
    val golden =
      if (seed == wl.defaultSeed && recordGolden.isEmpty) opt.get("golden").map(Checks.loadGolden(_, wl.name))
      else None
    val nproc = Runtime.getRuntime.availableProcessors
    val threads = math.min(nproc, 4)
    val localDir = new File(out, "spark-local").getAbsolutePath
    val city = wl.city(seed)
    val tracer = new Tracer(traced)
    val checks = new Checks(golden)

    // ---- set-up: SetupReps times, keep the last ------------------------
    val setups = mutable.ArrayBuffer.empty[Double]
    var env: Env = null
    for (i <- 0 until SetupReps) {
      if (env != null) { env.close(); env.spark.stop() }
      val t0 = System.nanoTime()
      val spark = session(threads, localDir)
      val last = i == SetupReps - 1
      if (last) tracer.attach(spark.sparkContext)
      env = if (last) tracer("Experiments.prepare")(Experiments.prepare(spark, city))
            else Experiments.prepare(spark, city)
      setups += secs(t0)
    }

    // ---- warm-up, then timed passes until `seconds` have passed -----------
    // Tracing, when on, covers every pass, so trace.wall_s compares with an
    // untraced wall_s; per-layer metrics come from the last pass.
    checks.guard(s"${wl.name} warm-up")(wl.warmUp(env))
    release(env)
    val walls = mutable.ArrayBuffer.empty[Double]
    var retained = 0.0
    var pass: Pass = null
    var lastPassSpans = 0
    var gcPass, cpuPass = 0.0
    val measure0 = System.nanoTime()
    var more = true
    while (more) {
      lastPassSpans = tracer.spans.size
      val gc0 = gcSeconds()
      val cpu0 = cpuSeconds()
      val t0 = System.nanoTime()
      pass = runPass(wl, env, tracer, checks)
      walls += secs(t0)
      gcPass = gcSeconds() - gc0
      cpuPass = cpuSeconds() - cpu0
      more = secs(measure0) < seconds
      if (!more) retained = retainedMb()
      release(env)
    }
    val wall = median(walls.toSeq)
    val lastPass = tracer.spans.slice(lastPassSpans, tracer.spans.size).toSeq

    // ---- layer probes (traced runs only) ---------------------------------
    val layers: Option[Map[String, Double]] =
      if (!traced) None
      else {
        val jvm = Map(
          "jvm.gc_s" -> gcPass,
          "jvm.cpu_s" -> cpuPass,
          "jvm.cpu_util" -> cpuPass / (walls.last * nproc),
          "trace.wall_s" -> wall,
          "eventgen.events" -> env.events.count().toDouble)
        val probes = Layers.probe(env, tracer, pass, threads)
        release(env)
        tracer.drain()
        val spans = tracer.spans.filter(_.name == "Experiments.prepare") ++ tracer.spans.drop(lastPassSpans)
        Some(Layers.fromSpans(spans.toSeq, pass, probes,
          jvm + ("jvm.peak_rss_mb" -> peakRssMb()), threads))
      }

    val sc = env.spark.sparkContext
    val machine = Map(
      "nproc" -> nproc, "task_threads" -> threads,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
      "spark_master" -> sc.master, "spark_version" -> sc.version,
      "default_parallelism" -> sc.defaultParallelism,
      "shuffle_partitions" -> env.spark.conf.get("spark.sql.shuffle.partitions"),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "git_commit" -> opt.getOrElse("commit", "unknown"),
      "source_sha256" -> opt.getOrElse("source-sha256", "unknown"))
    env.close()
    env.spark.stop()

    val okFrac = (checks.attempted - checks.failed).toDouble / checks.attempted
    val endToEnd = Seq(
      "setup_s" -> (median(setups.toSeq), "s"),
      "wall_s" -> (wall, "s"),
      "retained_mb" -> (retained, "MB"),
      "ok_frac" -> (okFrac, "ratio"))
    val metrics: Seq[(String, (Double, String))] = layers match {
      case Some(l) => Layers.Units.map { case (k, u) => k -> (l(k), u) }
      case None => endToEnd
    }

    recordGolden.foreach { path =>
      val w = new PrintWriter(path, "UTF-8")
      try checks.outputs.foreach { case (k, v) => w.println(s"${wl.name}\t$k\t$v") }
      finally w.close()
    }

    val stem = s"${wl.name}-seed$seed-trace${if (traced) 1 else 0}"
    Json.write(new File(out, s"$stem.record.json"), Map(
      "workload" -> wl.name, "seed" -> seed, "seconds" -> seconds, "traced" -> traced,
      "city" -> Map("name" -> city.name, "daily_orders" -> city.dailyOrders,
        "volume_scale" -> wl.volumeScale, "seed" -> city.seed),
      "machine" -> machine,
      "golden_checked" -> golden.isDefined,
      "setup_s" -> setups.toSeq, "pass_wall_s" -> walls.toSeq,
      "behaviour" -> pass.facts, "counters" -> pass.counters,
      "attempted" -> checks.attempted, "failed" -> checks.failed,
      "end_to_end" -> endToEnd.toMap.map { case (k, (v, _)) => k -> v },
      "per_layer" -> layers.getOrElse(Map.empty),
      "per_layer_computed" -> Seq("expr.hgrids", "expr.groups", "expr.terms", "expr.max_group_share.n1",
        "expr.alpha_repeat_share", "expr.ns_per_term"),
      // where the last pass's time went: self time per span name; the sums
      // add up to the pass, whose own self time is exp.self_s
      "self_s_by_span" -> lastPass.groupBy(_.name)
        .map { case (k, ss) => k -> ss.map(_.selfNs).sum / 1e9 }))
    if (traced) {
      val w = new PrintWriter(new File(out, s"$stem.spans.tsv"), "UTF-8")
      try {
        w.println("id\tparent\tname\ttag\tstart_ns\tend_ns\tself_ns\tjobs\ttasks\tshuffle_bytes\ttask_cpu_ns")
        tracer.spans.foreach { s =>
          w.println(Seq(s.id, s.parent.map(_.id).getOrElse(-1), s.name, s.tag, s.start, s.end, s.selfNs,
            s.jobs, s.tasks, s.shuffleBytes, s.taskCpuNs).mkString("\t"))
        }
      } finally w.close()
    }

    println(Json.encode(Map(
      "correct" -> (checks.failed == 0),
      "attempted" -> checks.attempted,
      "failed" -> checks.failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) }.toMap)))
  }
}

/** Minimal JSON encoder for the result line and the run record. */
object Json {
  def encode(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => encode(x)
    case s: String => "\"" + s.flatMap {
        case '"' => "\\\""
        case '\\' => "\\\\"
        case c if c < ' ' => f"\\u${c.toInt}%04x"
        case c => c.toString
      } + "\""
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => m.toSeq.sortBy(_._1.toString)
        .map { case (k, x) => encode(k.toString) + ": " + encode(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(encode).mkString("[", ", ", "]")
    case other => encode(other.toString)
  }

  def write(f: File, v: Any): Unit = {
    val w = new PrintWriter(f, "UTF-8")
    try w.println(encode(v)) finally w.close()
  }
}

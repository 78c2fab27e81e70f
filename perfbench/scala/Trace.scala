package perfbench

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable.ArrayBuffer

/** One traced call into the program: its wall interval, the span that
  * caused it, and the Spark work its jobs did. The Spark fields are written
  * by the listener thread only and read after [[Tracer.drain]].
  */
final class Span(val id: Int, val name: String, val tag: String, val parent: Option[Span], val start: Long) {
  var end: Long = 0L
  var childNs: Long = 0L
  var jobs: Int = 0
  var tasks: Int = 0
  var shuffleBytes: Long = 0L
  var taskCpuNs: Long = 0L

  def ns: Long = end - start
  /** Duration minus the part its child spans cover. */
  def selfNs: Long = ns - childNs
}

/** Spans recorded around the benchmark's calls into the program, kept in
  * memory. When disabled, [[apply]] only runs its body.
  *
  * Spark work is attributed through a job-group style local property: a
  * job carries the id of the span open on the thread that submitted it,
  * and the listener charges its jobs, tasks, shuffle bytes and task CPU
  * time to that span.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.SpanKey

  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  private val byId = new ConcurrentHashMap[Integer, Span]
  private var open: Option[Span] = None
  private var sc: Option[SparkContext] = None

  def apply[A](name: String, tag: String = "")(body: => A): A =
    if (!enabled) body
    else {
      val s = new Span(spans.size, name, tag, open, System.nanoTime())
      spans += s
      byId.put(s.id, s)
      open = Some(s)
      sc.foreach(_.setLocalProperty(SpanKey, s.id.toString))
      try body
      finally {
        s.end = System.nanoTime()
        s.parent.foreach(_.childNs += s.ns)
        open = s.parent
        sc.foreach(_.setLocalProperty(SpanKey, s.parent.map(_.id.toString).orNull))
      }
    }

  /** Charge Spark work of `context` to the open spans from now on. */
  def attach(context: SparkContext): Unit =
    if (enabled) {
      context.addSparkListener(listener)
      sc = Some(context)
    }

  /** Wait until the listener has seen every event posted so far. */
  def drain(): Unit = sc.foreach(org.apache.spark.PerfbenchBus.drain)

  private object listener extends SparkListener {
    private val stageSpan = new ConcurrentHashMap[Integer, Span]

    override def onJobStart(e: SparkListenerJobStart): Unit =
      for {
        props <- Option(e.properties)
        id <- Option(props.getProperty(SpanKey))
        s <- Option(byId.get(id.toInt))
      } {
        s.jobs += 1
        e.stageIds.foreach(stageSpan.put(_, s))
      }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val s = stageSpan.get(e.stageId)
      if (s != null && e.taskMetrics != null) {
        s.tasks += 1
        s.shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
        s.taskCpuNs += e.taskMetrics.executorCpuTime
      }
    }
  }
}

object Tracer {
  val SpanKey = "perfbench.span"
}

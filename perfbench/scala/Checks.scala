package perfbench

import scala.collection.mutable
import scala.io.Source
import scala.util.control.NonFatal

/** Output checks behind `ok_frac`.
  *
  * An operation passes when it does not throw, its invariants hold and, at
  * the workload's default seed, every output it names matches the golden
  * value recorded for it within [[Checks.RelTol]].
  *
  * @param golden golden outputs of this workload, when the seed is its default
  */
final class Checks(golden: Option[Map[String, Double]]) {
  var attempted = 0L
  var failed = 0L
  /** Every output named so far, in order (what `--record-golden` writes). */
  val outputs: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  /** Runs `body`; a throw is logged and yields None. */
  def guard[A](label: String)(body: => A): Option[A] =
    try Some(body)
    catch {
      case NonFatal(e) =>
        Console.err.println(s"[perfbench] $label threw $e")
        None
    }

  /** Names one output; false when it is not finite or differs from golden. */
  def output(key: String, value: Double): Boolean = {
    outputs(key) = value
    val ok = !value.isNaN && !value.isInfinite &&
      golden.forall(_.get(key).exists(Checks.close(_, value)))
    if (!ok) Console.err.println(s"[perfbench] output $key = $value, golden ${golden.flatMap(_.get(key))}")
    ok
  }

  /** Counts one operation. */
  def count(label: String, ok: Boolean): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      Console.err.println(s"[perfbench] failed: $label")
    }
  }
}

object Checks {
  /** ROADMAP aim 3's equivalence gate. */
  val RelTol = 1e-9

  def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= RelTol * math.max(math.abs(a), math.abs(b))

  /** Golden outputs of `workload` from a `workload<TAB>key<TAB>value` file. */
  def loadGolden(path: String, workload: String): Map[String, Double] = {
    val src = Source.fromFile(path, "UTF-8")
    try
      src.getLines()
        .map(_.split('\t'))
        .collect { case Array(`workload`, key, value) => key -> value.toDouble }
        .toMap
    finally src.close()
  }
}

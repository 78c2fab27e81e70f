package org.apache.spark

/** Access to the SparkContext's listener bus, which Spark keeps
  * package-private, so a test can count a call's jobs after all their
  * events are delivered.
  */
object ListenerBusAccess {
  /** Waits until every event posted so far has reached its listeners. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

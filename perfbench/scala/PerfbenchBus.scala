package org.apache.spark

/** Access to the driver's listener bus, which Spark keeps package-private:
  * the tracer reads its span counters only after every posted event has
  * reached its listener.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

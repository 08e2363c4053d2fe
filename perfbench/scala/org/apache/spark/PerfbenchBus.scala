package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so a
  * listener's counts are complete when a traced pass ends. The bus is
  * package-private to Spark, hence this file's package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

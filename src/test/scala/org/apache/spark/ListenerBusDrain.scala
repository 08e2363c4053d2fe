package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so a
  * test's listener counts are complete. The bus is package-private to
  * Spark, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

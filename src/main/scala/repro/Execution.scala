package repro

import org.apache.spark.sql.SparkSession
import repro.graph.ProbGraph
import scala.reflect.ClassTag

/** The one place that decides whether a job executes on the driver or fans
  * out over Spark, and the one function that fans it out.
  *
  * Every sampled-world kernel is a fold of independent work items into one
  * sum: AG/GR's rounds (`DeltaEstimator.estimate`, θ worlds), MCS
  * (`MonteCarloSpread.spread`, r worlds), BG's candidate sweep (candidates)
  * and Exact's combination sweep (combination indices). Each writes that
  * fold once, over a contiguous slice of item ids, and [[run]] executes it
  * on the driver or over Spark. Worlds are keyed by `Rng.sampleSeed`, so
  * both give identical results; only their cost differs. A Spark job pays a
  * fixed cost for scheduling, broadcast and task start, which is repaid only
  * when the job's work is large enough to split. The work of one job — one
  * AG/GR round, one BG round, one Exact search, one MCS evaluation — is
  * known before it starts, so the algorithms decide once per run from it
  * ([[cluster]]).
  */
object Execution {

  /** Work of one job, in vertex and edge visits (sampled-world traversals ×
    * (n + m)), at or above which it fans out over Spark; below it, the job
    * runs on the driver.
    *
    * Set when a driver AG/GR round cost about 10 ns per unit of work and a
    * Spark round about 52 ms plus 5 ns per unit, so that they broke even
    * near 1.2·10⁷. Re-measured by one traced perfbench run per workload
    * (seed 1, `local[2]`, 4 cores) once every kernel fanned out through
    * [[run]]:
    *  - one AG round of θ = 100 worlds (`sampling.round_s` on Spark vs
    *    `sampling.round_local_s` on the driver): table7-wiki-tr, work
    *    9.4·10⁵, 0.042 s vs 0.0044 s; sparse-100k-tr, work 4.0·10⁷, 0.69 s
    *    vs 0.078 s. The Spark probe runs cold (no earlier job of the run
    *    warms it) and is noisy: four traced sparse runs read 0.10–0.69 s. A
    *    driver round costs about 2–5 ns per unit of work, so the driver
    *    wins both rounds: n + m does not measure a round, whose samples
    *    cost what they reach.
    *  - one MCS evaluation (`spread.mcs_s` vs `spread.mcs_local_s`): table7,
    *    r = 1000, work 9.4·10⁶, 0.029 s vs 0.0028 s; sparse, r = 100, work
    *    4.0·10⁷, 0.042 s vs 0.0084 s. A simulation too visits only the
    *    reached part of its world.
    * The constant is unchanged, so MCS and the AG/GR rounds still run on
    * the driver on table7 and on Spark on sparse; a price by what a job's
    * worlds reach would replace it.
    */
  val SparkMinWork: Double = 1e7

  /** `Some(spark)` when `traversals` sampled-world traversals of `g` — the
    * work of one job — reach [[SparkMinWork]]; `None` (run on the driver)
    * below it.
    */
  def cluster(spark: SparkSession, g: ProbGraph, traversals: Double): Option[SparkSession] =
    if (traversals * (g.n.toDouble + g.m) >= SparkMinWork) Some(spark) else None

  /** Fold the work items `0 until count` into one result: `part(shared,
    * from, until)` folds the items of one contiguous slice into a partial,
    * and `merge` combines two partials.
    *
    * On the driver (`cluster = None`) the whole range is one slice. Over
    * Spark, `shared` is broadcast once, the range is cut into
    * `defaultParallelism` slices (see [[slice]]), one task per slice over
    * an RDD of slice ids, so partials are plain JVM values (no encoder, no
    * query plan); an empty slice gives no partial. The partials are merged
    * on the driver, left to right in slice order, and the broadcast is
    * destroyed. One call is one Spark job.
    */
  def run[A: ClassTag, R: ClassTag](cluster: Option[SparkSession], shared: A, count: Long)(
      part: (A, Long, Long) => R)(merge: (R, R) => R): R = {
    require(count >= 1, "a job needs at least one work item")
    cluster match {
      case None => part(shared, 0L, count)
      case Some(spark) =>
        val sc = spark.sparkContext
        val slices = sc.defaultParallelism
        val bc = sc.broadcast(shared)
        try {
          sc.parallelize(0 until slices, slices)
            .flatMap { s =>
              val (from, until) = slice(count, slices, s)
              if (from == until) Iterator.empty else Iterator.single(part(bc.value, from, until))
            }
            .collect()
            .reduceLeft(merge)
        } finally bc.destroy()
    }
  }

  /** Bounds `[from, until)` of slice `s` when `0 until count` is cut into
    * `slices` contiguous slices whose sizes differ by at most one; the
    * slices cover the range in order. Never overflows, for any `count`.
    */
  def slice(count: Long, slices: Int, s: Int): (Long, Long) = {
    val q = count / slices
    val r = count % slices
    (s * q + math.min(s.toLong, r), (s + 1) * q + math.min(s + 1L, r))
  }
}

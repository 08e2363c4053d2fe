package repro

import org.apache.spark.sql.SparkSession
import repro.graph.ProbGraph

/** The one place that decides whether a run executes on the driver or fans
  * out over Spark.
  *
  * Every sampled-world kernel has both forms: AG/GR's rounds
  * (`DeltaEstimator.estimate` / `estimateLocal`), MCS (`MonteCarloSpread.spread`
  * / `spreadLocal`), BG's candidate sweep and Exact's combination sweep. Both
  * forms key their worlds by `Rng.sampleSeed`, so they return identical
  * results; only their cost differs. A Spark job pays a fixed cost for
  * scheduling, broadcast and task start, which is repaid only when the job's
  * work is large enough to split. The work of one job — one AG/GR round, one
  * BG round, one Exact search, one MCS evaluation — is known before it
  * starts, so the algorithms decide once per run from it.
  */
object Execution {

  /** Work of one job, in vertex and edge visits (sampled-world traversals ×
    * (n + m)), at or above which it fans out over Spark; below it, the job
    * runs on the driver.
    *
    * Set from one traced perfbench run per workload (`local[2]`, 4 cores):
    *  - one AG round of θ = 100 worlds (`sampling.round_s` on Spark vs
    *    `sampling.round_local_s` on the driver): table7-wiki-tr, work
    *    9.3·10⁵, 0.057 s vs 0.011 s; sparse-100k-tr, work 4.0·10⁷, 0.246 s vs
    *    0.378 s. A driver round costs about 10 ns per unit of work, a Spark
    *    round about 52 ms plus 5 ns per unit, so they break even near
    *    1.2·10⁷.
    *  - one MCS evaluation (`spread.mcs_s` vs `spread.mcs_local_s`): table7,
    *    r = 1000, work 9.4·10⁶, 0.069 s vs 0.0077 s; sparse, r = 100, work
    *    4.0·10⁷, 0.080 s vs 0.019 s. A simulation visits only the reached
    *    part of its world (0.5–0.8 ns per unit of work, against about 10 ns
    *    for a dominator-tree sample), so MCS alone would break even near
    *    3·10⁸. The constant follows the dominator-tree rounds, which are the
    *    bulk of an AG/GR run: MCS runs on the driver on table7 and stays on
    *    Spark on sparse.
    */
  val SparkMinWork: Double = 1e7

  /** `Some(spark)` when `traversals` sampled-world traversals of `g` — the
    * work of one job — reach [[SparkMinWork]]; `None` (run on the driver)
    * below it.
    */
  def cluster(spark: SparkSession, g: ProbGraph, traversals: Double): Option[SparkSession] =
    if (traversals * (g.n.toDouble + g.m) >= SparkMinWork) Some(spark) else None
}

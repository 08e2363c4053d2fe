package repro.spread

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.graph.ProbGraph
import repro.sampling.GraphSampler
import repro.util.Rng

/** Monte-Carlo Simulation (MCS) estimation of the expected spread — the
  * spread oracle of the paper's baselines [7]: each simulation keeps every
  * edge with its propagation probability and counts the vertices reachable
  * from the seeds (Lemma 1). All simulations are keyed by pure per-sample
  * seeds, so evaluations of different blocker sets under the same
  * `masterSeed` use common random numbers (identical sampled worlds).
  */
object MonteCarloSpread {

  /** Total reach count of `roots` over the `r` sampled worlds keyed by
    * `masterSeed`, with `blocked` vertices removed (null: none).
    */
  def reachSum(g: ProbGraph, roots: Array[Int], r: Int, masterSeed: Long, blocked: Array[Boolean]): Long = {
    val vis = new Array[Boolean](g.n)
    var sum = 0L
    var i = 0L
    while (i < r) {
      java.util.Arrays.fill(vis, false)
      sum += GraphSampler.reach(g, roots, blocked, vis)(GraphSampler.liveEdge(g, Rng.sampleSeed(masterSeed, i)))
      i += 1
    }
    sum
  }

  /** Driver-side estimate over `r` simulations. */
  def spreadLocal(
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean] = null): Double = {
    require(r >= 1, "r must be positive")
    reachSum(g, roots, r, masterSeed, blocked).toDouble / r
  }

  /** Distributed estimate: `r` simulations fanned out over `spark.range(r)`,
    * partition-local sums of reach counts, merged on the driver.
    */
  def spread(
      spark: SparkSession,
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean] = null): Double = {
    require(r >= 1, "r must be positive")
    import spark.implicits._
    val bc = spark.sparkContext.broadcast((g, roots, Option(blocked)))
    try {
      val total = spark
        .range(r)
        .as[Long]
        .mapPartitions { ids =>
          val (graph, rs, blk) = bc.value
          var sum = 0L
          ids.foreach(id => sum += GraphSampler.reachCount(graph, rs, Rng.sampleSeed(masterSeed, id), blk.orNull))
          Iterator.single(sum)
        }
        .collect()
        .sum
      total.toDouble / r
    } finally bc.destroy()
  }

  /** Spread after blocking `blockers`, on the driver or over Spark as
    * [[repro.Execution]] decides for `r` simulations of `g`.
    */
  def spreadWithBlockers(
      spark: SparkSession,
      g: ProbGraph,
      roots: Array[Int],
      blockers: Iterable[Int],
      r: Int,
      masterSeed: Long): Double = {
    val mask = new Array[Boolean](g.n)
    blockers.foreach(mask(_) = true)
    Execution.cluster(spark, g, r) match {
      case Some(s) => spread(s, g, roots, r, masterSeed, mask)
      case None => spreadLocal(g, roots, r, masterSeed, mask)
    }
  }
}

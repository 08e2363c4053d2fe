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

  /** Total reach count of `roots` over the sampled worlds `from until until`
    * keyed by `masterSeed`, with `blocked` vertices removed (null: none), on
    * one `vis` array.
    */
  def reachSum(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      masterSeed: Long,
      from: Long,
      until: Long): Long = {
    val vis = new Array[Boolean](g.n)
    var sum = 0L
    var i = from
    while (i < until) {
      sum += reachWorld(g, roots, Rng.sampleSeed(masterSeed, i), blocked, vis)
      i += 1
    }
    sum
  }

  /** BG's sweep over the candidates `candidates(from until until)`: the
    * total reach count of `roots` over the `r` worlds keyed by `masterSeed`
    * with `blocked` and one candidate blocked, in candidate order. Worlds run
    * one at a time; within a world every candidate gets its own traversal,
    * but an edge's coin is drawn once per world and kept in a memo (`stamp`
    * holds the world's epoch w + 1 for edges drawn, so no per-world reset).
    */
  def sweepSums(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      candidates: Array[Int],
      from: Int,
      until: Int,
      r: Int,
      masterSeed: Long): Array[Long] = {
    val sums = new Array[Long](until - from)
    val mask = if (blocked == null) new Array[Boolean](g.n) else blocked.clone()
    val vis = new Array[Boolean](g.n)
    val stamp = new Array[Int](g.m)
    val live = new Array[Boolean](g.m)
    val probs = g.probs
    var w = 0
    while (w < r) {
      val sampleSeed = Rng.sampleSeed(masterSeed, w)
      val epoch = w + 1
      val keepEdge = (e: Int) => {
        if (stamp(e) != epoch) { stamp(e) = epoch; live(e) = Rng.edgeKeep(sampleSeed, e, probs(e)) }
        live(e)
      }
      var i = from
      while (i < until) {
        val c = candidates(i)
        val was = mask(c)
        mask(c) = true
        java.util.Arrays.fill(vis, false)
        sums(i - from) += GraphSampler.reach(g, roots, mask, vis)(keepEdge)
        mask(c) = was
        i += 1
      }
      w += 1
    }
    sums
  }

  /** Reach count of `roots` in the world keyed by `sampleSeed`, reusing
    * `vis` (cleared first).
    */
  private def reachWorld(
      g: ProbGraph,
      roots: Array[Int],
      sampleSeed: Long,
      blocked: Array[Boolean],
      vis: Array[Boolean]): Int = {
    java.util.Arrays.fill(vis, false)
    GraphSampler.reach(g, roots, blocked, vis)(GraphSampler.liveEdge(g, sampleSeed))
  }

  /** Estimate over `r` simulations with `blocked` vertices removed (null:
    * none), on the driver (`cluster = None`) or as one Spark job that sums
    * the reach counts of each slice of worlds.
    */
  def spread(
      cluster: Option[SparkSession],
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean]): Double = {
    require(r >= 1, "r must be positive")
    val total = Execution.run(cluster, g, (roots, blocked), r) { case (g, (roots, blocked), from, until) =>
      reachSum(g, roots, blocked, masterSeed, from, until)
    }(_ + _)
    total.toDouble / r
  }

  /** Driver-side estimate over `r` simulations. */
  def spreadLocal(
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean] = null): Double =
    spread(None, g, roots, r, masterSeed, blocked)

  /** Estimate over `r` simulations fanned out over Spark. */
  def spread(
      spark: SparkSession,
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean] = null): Double =
    spread(Some(spark), g, roots, r, masterSeed, blocked)

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
    spread(Execution.cluster(spark, g, r), g, roots, r, masterSeed, mask)
  }
}

package repro.imin

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.graph.ProbGraph
import repro.sampling.DeltaEstimator
import repro.util.Rng
import scala.collection.mutable.ArrayBuffer

/** GreedyReplace (Algorithm 4 of the paper): first greedily pick up to `b`
  * blockers *among the out-neighbors of the seed*, then walk the blockers in
  * reverse insertion order, tentatively un-blocking each and re-blocking the
  * globally best candidate instead; stop replacing the moment the removed
  * blocker is itself the best candidate (early termination, Lines 18–20),
  * or, keeping it, when no candidate decreases the spread.
  *
  * The out-neighbors-first phase captures the observation that with an
  * unlimited budget the optimal solution blocks exactly the seed's
  * out-neighbors; the replacement phase recovers the greedy algorithm's
  * strength at small budgets (Example 4 / Table III).
  */
object GreedyReplace {

  /** Run GR and return the final blocker set (insertion order). The θ
    * samples of a round run on the driver or as one Spark job, as
    * [[repro.Execution]] decides once for the run.
    */
  def run(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      theta: Int,
      masterSeed: Long): Seq[Int] =
    select(Execution.cluster(spark, g, theta), g, seeds, b, theta, masterSeed)

  /** Phase 1 only — the "OutNeighbors" heuristic of Example 3 / Table III:
    * greedily block up to `b` out-neighbors of the seed and stop.
    */
  def outNeighborsOnly(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      theta: Int,
      masterSeed: Long): Seq[Int] =
    outNeighbors(Execution.cluster(spark, g, theta), g, Blocking.rootsOf(g, seeds), b, theta, masterSeed).toSeq

  /** Phase 1's candidate blockers (Line 1): the out-neighbors of the
    * unified seed, i.e. the non-seed targets of the seeds' `p > 0` edges.
    */
  private[imin] def seedOutNeighbors(g: ProbGraph, seeds: Set[Int]): Set[Int] =
    (for {
      s <- seeds.iterator
      e <- g.offsets(s) until g.offsets(s + 1)
      if g.probs(e) > 0.0 && !seeds.contains(g.targets(e))
    } yield g.targets(e)).toSet

  /** Phase 1 (Lines 1-10): greedy rounds over CB until `b` are blocked or
    * CB is exhausted. A zero-Δ out-neighbor is still taken, as in "first
    * select b out-neighbors".
    */
  private[imin] def outNeighbors(
      cluster: Option[SparkSession],
      g: ProbGraph,
      roots: Array[Int],
      b: Int,
      theta: Int,
      masterSeed: Long): ArrayBuffer[Int] = {
    require(b >= 1, "budget must be positive")
    val blocked = new Array[Boolean](g.n)
    val cb = Blocking.maskOf(g.n, seedOutNeighbors(g, roots.toSet))
    Blocking.greedy(b, masterSeed, cb, blocked, whileGain = false)(
      (roundSeed, blockers) => DeltaEstimator.estimate(cluster, g, roots, blockers, theta, roundSeed))
  }

  /** GR's rounds on `g` from `seeds`, on the driver (`cluster = None`) or
    * as one Spark job per round.
    */
  private[imin] def select(
      cluster: Option[SparkSession],
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      theta: Int,
      masterSeed: Long): Seq[Int] = {
    val roots = Blocking.rootsOf(g, seeds)
    val order = outNeighbors(cluster, g, roots, b, theta, masterSeed)
    val blocked = Blocking.maskOf(g.n, order)
    val nonSeed = Blocking.maskOf(g.n, roots).map(!_)

    // Phase 2 (Lines 11-20): reverse-order replacement. It stops once the
    // removed blocker u is kept: picked again (Lines 18-20), or because no
    // vertex decreases the spread (u is unreached in every world).
    var j = order.length - 1
    var replaced = true
    while (j >= 0 && replaced) {
      val u = order.remove(j)
      blocked(u) = false
      val delta = DeltaEstimator.estimate(cluster, g, roots, order.toArray.sorted, theta,
        Rng.splitmix64(masterSeed ^ 0x5deece66dL ^ (j + 1).toLong))
      val x = Blocking.argmaxDelta(delta, nonSeed, blocked, whileGain = true)
      val pick = if (x >= 0) x else u
      blocked(pick) = true
      order += pick
      replaced = pick != u
      j -= 1
    }
    order.toSeq
  }
}

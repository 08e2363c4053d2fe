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
  * blocker is itself the best candidate (early termination, Lines 18–20).
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
    select(Execution.cluster(spark, g, theta), g, seeds, b, theta, masterSeed, replace = true)

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
    select(Execution.cluster(spark, g, theta), g, seeds, b, theta, masterSeed, replace = false)

  /** Phase 1's candidate blockers (Line 1): the out-neighbors of the
    * unified seed, i.e. the non-seed targets of the seeds' `p > 0` edges.
    */
  private[imin] def seedOutNeighbors(g: ProbGraph, seeds: Set[Int]): Set[Int] =
    (for {
      s <- seeds.iterator
      e <- g.offsets(s) until g.offsets(s + 1)
      if g.probs(e) > 0.0 && !seeds.contains(g.targets(e))
    } yield g.targets(e)).toSet

  /** GR's rounds on `g` from `seeds`, on the driver (`cluster = None`) or
    * as one Spark job per round.
    */
  private[imin] def select(
      cluster: Option[SparkSession],
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      theta: Int,
      masterSeed: Long,
      replace: Boolean): Seq[Int] = {
    require(b >= 1, "budget must be positive")
    val roots = Blocking.rootsOf(g, seeds)
    val isSeed = Blocking.maskOf(g.n, roots)

    def deltasOf(blocked: Array[Boolean], roundSeed: Long): Array[Double] =
      DeltaEstimator.estimate(cluster, g, roots, blocked, theta, roundSeed)

    val cb = seedOutNeighbors(g, seeds)
    val inCb = Blocking.maskOf(g.n, cb)
    val blocked = new Array[Boolean](g.n)
    val order = ArrayBuffer.empty[Int]

    // Phase 1 (Lines 3-10): min(d_out, b) greedy rounds restricted to CB.
    val rounds = math.min(cb.size, b)
    var i = 0
    while (i < rounds) {
      val delta = deltasOf(blocked, Rng.splitmix64(masterSeed ^ (i + 1).toLong))
      val x = Blocking.argmaxDelta(delta, v => inCb(v) && !blocked(v))
      // x >= 0 because |CB| >= rounds; zero-delta out-neighbors are still
      // taken, mirroring "first select b out-neighbors". A taken x stays in
      // CB but is blocked.
      blocked(x) = true
      order += x
      i += 1
    }

    if (replace) {
      // Phase 2 (Lines 11-20): reverse-order replacement with early exit.
      var j = order.length - 1
      var break = false
      while (j >= 0 && !break) {
        val u = order(j)
        blocked(u) = false
        order.remove(j)
        val delta = deltasOf(blocked, Rng.splitmix64(masterSeed ^ 0x5deece66dL ^ (j + 1).toLong))
        val x = Blocking.argmaxDelta(delta, v => !blocked(v) && !isSeed(v))
        val pick = if (x >= 0) x else u
        blocked(pick) = true
        order += pick
        if (pick == u) break = true // Lines 18-20
        j -= 1
      }
    }
    order.toSeq
  }
}

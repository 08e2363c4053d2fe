package repro.imin

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.graph.ProbGraph
import repro.sampling.DeltaEstimator
import repro.util.Rng
import scala.collection.mutable.ArrayBuffer

/** AdvancedGreedy (Algorithm 3 of the paper): in each of the `b` rounds,
  * estimate the spread decrease of *every* candidate blocker at once with
  * DecreaseESComputation (sampled graphs + dominator trees, Algorithm 2)
  * on the currently blocked graph, and block the maximizer.
  *
  * Effectiveness matches BaselineGreedy with θ = r (same sampled-world
  * semantics, §V-C) at a per-round cost of O(θ·m·α(m,n)) instead of
  * O(n·r·m).
  */
object AdvancedGreedy {

  /** Run AG and return the blocker insertion order (≤ b vertices — selection
    * stops early once no candidate can decrease the spread). The θ samples
    * of a round run on the driver or as one Spark job, as
    * [[repro.Execution]] decides once for the run.
    */
  def run(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      theta: Int,
      masterSeed: Long): Seq[Int] =
    runWithCheckpoints(spark, g, seeds, Seq(b), theta, masterSeed)(b)

  /** Run AG once up to `budgets.max` and return the blocker prefix at every
    * requested budget (greedy selection is prefix-monotone, so one pass
    * serves a whole budget sweep).
    */
  def runWithCheckpoints(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      budgets: Seq[Int],
      theta: Int,
      masterSeed: Long): Map[Int, Seq[Int]] = {
    require(budgets.nonEmpty && budgets.forall(_ >= 1), "budgets must be positive")
    select(Execution.cluster(spark, g, theta), g, seeds, budgets, theta, masterSeed)
  }

  /** AG's rounds on `g` from `seeds`, on the driver (`cluster = None`) or
    * as one Spark job per round.
    */
  private[imin] def select(
      cluster: Option[SparkSession],
      g: ProbGraph,
      seeds: Set[Int],
      budgets: Seq[Int],
      theta: Int,
      masterSeed: Long): Map[Int, Seq[Int]] = {
    val b = budgets.max
    val roots = Blocking.rootsOf(g, seeds)
    val isSeed = Blocking.maskOf(g.n, roots)
    val blocked = new Array[Boolean](g.n)
    val order = ArrayBuffer.empty[Int]

    var i = 0
    var exhausted = false
    while (i < b && !exhausted) {
      val roundSeed = Rng.splitmix64(masterSeed ^ (i + 1).toLong)
      val delta = DeltaEstimator.estimate(cluster, g, roots, blocked, theta, roundSeed)
      val x = Blocking.argmaxDelta(delta, v => !blocked(v) && !isSeed(v))
      if (x < 0 || delta(x) <= 0.0) exhausted = true // nothing left to gain
      else { blocked(x) = true; order += x }
      i += 1
    }
    budgets.map(k => k -> order.take(k).toSeq).toMap
  }
}

package repro.imin

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.graph.ProbGraph
import repro.sampling.DeltaEstimator

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
    * as one Spark job per round: non-seeds priced by Δ, while one gains.
    */
  private[imin] def select(
      cluster: Option[SparkSession],
      g: ProbGraph,
      seeds: Set[Int],
      budgets: Seq[Int],
      theta: Int,
      masterSeed: Long): Map[Int, Seq[Int]] = {
    val roots = Blocking.rootsOf(g, seeds)
    val nonSeed = Blocking.maskOf(g.n, roots).map(!_)
    val blocked = new Array[Boolean](g.n)
    val order = Blocking.greedy(budgets.max, masterSeed, nonSeed, blocked, whileGain = true)(
      (roundSeed, blockers) => DeltaEstimator.estimate(cluster, g, roots, blockers, theta, roundSeed))
    budgets.map(k => k -> order.take(k).toSeq).toMap
  }
}

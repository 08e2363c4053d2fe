package repro.imin

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.graph.ProbGraph
import repro.spread.MonteCarloSpread
import java.util.stream.IntStream

/** BaselineGreedy (Algorithm 1) — the state of the art the paper compares
  * against [2], [8]: in every round, re-estimate the expected spread of
  * blocking each candidate with Monte-Carlo Simulations and block the
  * vertex whose removal minimizes it. O(b·n·r·m) — this is the algorithm
  * AG beats by orders of magnitude while matching its choices.
  *
  * BG samples AG's worlds: the seeds are the roots and the blockers a mask
  * on the original graph, and all candidates in a round share its `r`
  * worlds (common random numbers). So with θ = r a candidate's decrease is
  * r × its AG Δ (Theorem 6), and BG picks AG's blocker (§V-C). A round is
  * one MCS evaluation with a blocker set per candidate
  * ([[repro.spread.MonteCarloSpread.sums]]): the candidates share each
  * world's live subgraph, which one walk from the seeds with the round's
  * blockers finds while it counts the round's base spread. What stays per
  * candidate is every traversal: each candidate × world is its own walk on
  * that subgraph from the seeds' successors, as in Alg. 1.
  */
object BaselineGreedy {

  /** Run BG and return the blocker insertion order. A round runs on the
    * driver or as one Spark job over its r worlds, as [[repro.Execution]]
    * decides once for the run from the first round's candidates × r.
    */
  def run(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      r: Int,
      masterSeed: Long): Seq[Int] =
    select(g, seeds, b, r, masterSeed)(Execution.cluster(spark, g, _))

  /** BG's rounds on `g` from `seeds`: the non-seeds the seeds reach,
    * priced by base − sum = r·Δ, while one gains. Every round runs where
    * `cluster` places the first round's candidates × r traversals.
    */
  private[imin] def select(g: ProbGraph, seeds: Set[Int], b: Int, r: Int, masterSeed: Long)(
      cluster: Double => Option[SparkSession]): Seq[Int] = {
    require(b >= 1 && r >= 1, "b and r must be positive")
    val roots = Blocking.rootsOf(g, seeds)
    val allowed = Blocking.support(g, roots)
    val blocked = new Array[Boolean](g.n)
    // Later rounds sweep fewer candidates than the first.
    val where = cluster(allowed.count(identity).toDouble * r)
    Blocking.greedy(b, masterSeed, allowed, blocked, whileGain = true) { (roundSeed, blockers) =>
      val candidates = IntStream.range(0, g.n).filter(v => allowed(v) && !blocked(v)).toArray
      val (base, sums) = MonteCarloSpread.sums(where, g, roots, blockers, candidates, 1, r, roundSeed)
      val delta = new Array[Double](g.n)
      candidates.indices.foreach(k => delta(candidates(k)) = (base - sums(k)).toDouble)
      delta
    }.toSeq
  }
}

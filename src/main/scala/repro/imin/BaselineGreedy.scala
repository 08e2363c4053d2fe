package repro.imin

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.graph.ProbGraph
import repro.spread.MonteCarloSpread
import repro.util.Rng
import scala.collection.mutable.ArrayBuffer

/** BaselineGreedy (Algorithm 1) — the state of the art the paper compares
  * against [2], [8]: in every round, re-estimate the expected spread of
  * blocking each candidate with Monte-Carlo Simulations and block the
  * vertex whose removal minimizes it. O(b·n·r·m) — this is the algorithm
  * AG beats by orders of magnitude while matching its choices.
  *
  * All candidates in a round share the same `r` sampled worlds (common
  * random numbers), which both reduces variance and makes BG's round-`i`
  * choice comparable to AG's estimate semantics.
  */
object BaselineGreedy {

  /** Run BG and return the blocker insertion order. A round's candidate
    * sweep runs on the driver or as one Spark job, as [[repro.Execution]]
    * decides once for the run from the first round's candidates × r.
    */
  def run(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      r: Int,
      masterSeed: Long): Seq[Int] = {
    require(b >= 1 && r >= 1, "b and r must be positive")
    val (red, notSeed) = Blocking.reduced(g, seeds)
    val rg = red.graph
    val superSeed = red.superSeed
    val blocked = new Array[Boolean](rg.n)
    val order = ArrayBuffer.empty[Int]

    val support = Blocking.support(rg, Array(superSeed))

    def candidatesLeft = (0 until rg.n).filter(v => support(v) && !blocked(v) && notSeed(v))
    // Later rounds sweep fewer candidates than the first.
    val cluster = Execution.cluster(spark, rg, candidatesLeft.size.toDouble * r)

    var i = 0
    var exhausted = false
    while (i < b && !exhausted) {
      val roundSeed = Rng.splitmix64(masterSeed ^ (i + 1).toLong)
      val candidates = candidatesLeft
      if (candidates.isEmpty) exhausted = true
      else {
        val base = spreadSum(rg, superSeed, blocked, -1, r, roundSeed)
        val sums = sweep(cluster, rg, superSeed, blocked, candidates, r, roundSeed)
        // Max decrease == min spread; deterministic tie-break by smallest id.
        val x = candidates.minBy(u => (sums(u), u))
        if (base - sums(x) <= 0L) exhausted = true
        else { blocked(x) = true; order += x }
      }
      i += 1
    }
    order.toSeq
  }

  /** One round's sweep: the total reach count over the round's `r` worlds
    * with each candidate blocked in turn, on the driver (`cluster = None`) or
    * as one Spark job (one task evaluates a slice of the candidates).
    */
  private[imin] def sweep(
      cluster: Option[SparkSession],
      g: ProbGraph,
      root: Int,
      blocked: Array[Boolean],
      candidates: Seq[Int],
      r: Int,
      roundSeed: Long): Map[Int, Long] =
    Execution.run(cluster, g, (root, blocked, candidates.toArray), candidates.size) {
      case (g, (root, blocked, candidates), from, until) =>
        val sums = Map.newBuilder[Int, Long]
        var i = from.toInt
        while (i < until) {
          sums += candidates(i) -> spreadSum(g, root, blocked, candidates(i), r, roundSeed)
          i += 1
        }
        sums.result()
    }(_ ++ _)

  /** Total reach count over `r` sampled worlds with `extraBlock` also
    * blocked (-1 for none).
    */
  private def spreadSum(
      g: ProbGraph,
      root: Int,
      blocked: Array[Boolean],
      extraBlock: Int,
      r: Int,
      roundSeed: Long): Long = {
    val mask =
      if (extraBlock < 0) blocked
      else {
        val m2 = blocked.clone(); m2(extraBlock) = true; m2
      }
    MonteCarloSpread.reachSum(g, Array(root), mask, roundSeed, 0L, r)
  }
}

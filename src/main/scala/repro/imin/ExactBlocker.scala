package repro.imin

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.graph.ProbGraph
import repro.spread.MonteCarloSpread
import java.util.stream.IntStream

/** The Exact baseline of §VI-A: enumerate *every* blocker set of size `b`
  * and keep the one with the smallest expected spread.
  *
  * Spread of each candidate set is evaluated on a fixed pool of `thetaEval`
  * sampled worlds keyed by `masterSeed` — common random numbers, so the
  * comparison between candidate sets (and later against GR) is exact on the
  * sampled measure, mirroring the paper's exact-spread evaluation [39] of
  * its small extracts. The `C(candidates, b)` combinations are unranked
  * combinatorially, so one combination index names one blocker set. They
  * are evaluated world-major, by the Monte-Carlo kernel of MCS and BG
  * ([[repro.spread.MonteCarloSpread.sweepSums]]): each world's live
  * subgraph is built once per chunk of combinations, and every
  * combination × world is still its own walk on it.
  */
object ExactBlocker {

  /** Binomial coefficient `C(n, r)`, exact.
    *
    * @throws ArithmeticException when `C(n, r)` exceeds the `Long` range
    */
  def choose(n: Int, r: Int): Long = {
    if (r < 0 || r > n) return 0L
    var acc = 1L // C(n, i)
    var i = 0
    while (i < math.min(r, n - r)) {
      // C(n, i+1) = C(n, i)·(n-i)/(i+1); cancelling gcd(acc, i+1) first keeps
      // every product exact, so multiplyExact fails only if C(n, i+1) does.
      val g = gcd(acc, i + 1L)
      acc = Math.multiplyExact(acc / g, (n - i) / ((i + 1) / g))
      i += 1
    }
    acc
  }

  @annotation.tailrec
  private def gcd(a: Long, b: Long): Long = if (b == 0L) a else gcd(b, a % b)

  /** Colexicographic unranking: the `idx`-th `b`-subset of `0 until k`,
    * as positions into the candidate array.
    */
  def unrank(idx: Long, b: Int): Array[Int] = {
    val out = new Array[Int](b)
    var rem = idx
    var j = b
    while (j >= 1) {
      var c = j - 1
      while (choose(c + 1, j) <= rem) c += 1
      out(j - 1) = c
      rem -= choose(c, j)
      j -= 1
    }
    out
  }

  /** Exhaustive search over all `b`-subsets of the blockable candidates.
    *
    * Candidates are the non-seed vertices reachable from the seeds through
    * positive-probability edges — blocking anything else decreases nothing,
    * so the restriction preserves the optimal spread value.
    *
    * The `C(candidates, b)` sets are searched on the driver or as one Spark
    * job, as [[repro.Execution]] decides from their number × `thetaEval`.
    *
    * @return (optimal blocker set, its estimated spread under the fixed pool)
    * @throws ArithmeticException when `C(candidates, b)` exceeds the `Long`
    *                             range; nothing is evaluated then
    * @throws IllegalArgumentException when `C(candidates, b)` × `thetaEval`
    *                                  exceeds [[MaxSetWorlds]]; nothing is
    *                                  evaluated then
    */
  def run(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      thetaEval: Int,
      masterSeed: Long): (Seq[Int], Double) = {
    require(b >= 1 && thetaEval >= 1, "b and thetaEval must be positive")
    val roots = Blocking.rootsOf(g, seeds)
    val support = Blocking.support(g, roots)
    val candidates = IntStream.range(0, g.n).filter(support(_)).toArray
    val bEff = math.min(b, candidates.length)
    require(bEff >= 1, "no blockable candidate is reachable from the seeds")
    val nCombos = choose(candidates.length, bEff)
    require(nCombos <= MaxSetWorlds / thetaEval,
      s"Exact search of C(${candidates.length}, $bEff) = $nCombos blocker sets × $thetaEval worlds exceeds $MaxSetWorlds")
    val cluster = Execution.cluster(spark, g, nCombos.toDouble * thetaEval)
    val (bestSum, bestIdx) = search(cluster, g, roots, candidates, bEff, thetaEval, masterSeed)
    val blockers = unrank(bestIdx, bEff).map(candidates(_)).toSeq
    (blockers, bestSum.toDouble / thetaEval)
  }

  /** Largest search [[run]] accepts, in blocker sets × worlds: about 200×
    * the largest one of Tables V/VI (`C(72, 4)` × 500 ≈ 5.1·10⁸). A larger
    * search fails before it starts instead of running 200 times as long.
    */
  private val MaxSetWorlds = 100000000000L

  /** Blocker sets one sweep call evaluates: bounds a slice's set and sum
    * arrays, whatever its number of combinations.
    */
  private val Chunk = 4096

  /** Every `b`-subset of `candidates` evaluated on the pool of `thetaEval`
    * worlds, on the driver (`cluster = None`) or as one Spark job, one task
    * per slice of combination indices. A slice walks its combinations in
    * colex order, [[Chunk]] at a time: each chunk is one
    * [[repro.spread.MonteCarloSpread.sweepSums]] call with stride `b`,
    * followed by an argmin.
    *
    * @return (smallest total reach count, its combination index); ties go to
    *         the smallest index
    */
  private[repro] def search(
      cluster: Option[SparkSession],
      g: ProbGraph,
      roots: Array[Int],
      candidates: Array[Int],
      b: Int,
      thetaEval: Int,
      masterSeed: Long): (Long, Long) =
    Execution.run(cluster, g, (roots, candidates), choose(candidates.length, b)) {
      case (g, (roots, candidates), from, until, scratch) =>
        val pos = unrank(from, b)
        val sets = new Array[Int](Chunk * b)
        var best = (Long.MaxValue, -1L)
        var idx = from
        while (idx < until) {
          val k = math.min(Chunk.toLong, until - idx).toInt
          var s = 0
          while (s < k) {
            var j = 0
            while (j < b) { sets(s * b + j) = candidates(pos(j)); j += 1 }
            nextCombination(pos)
            s += 1
          }
          val (_, sums) = MonteCarloSpread.sweepSums(g, roots, null, sets, b, k, 0, thetaEval, masterSeed, scratch)
          s = 0
          while (s < k) {
            if (sums(s) < best._1) best = (sums(s), idx + s) // ids ascend: a tie keeps the smaller index
            s += 1
          }
          idx += k
        }
        best
    }(Ordering[(Long, Long)].min)

  /** Step the positions `pos` (strictly increasing) to the next `b`-subset
    * in colex order, the one [[unrank]] gives for the next index.
    */
  def nextCombination(pos: Array[Int]): Unit = {
    var j = 0
    while (j + 1 < pos.length && pos(j) + 1 == pos(j + 1)) { pos(j) = j; j += 1 }
    pos(j) += 1
  }
}

package repro.imin

import repro.graph.ProbGraph
import repro.util.Rng
import scala.util.Random

/** The two simple baselines of the experiments (§VI-A): Rand (RA) and
  * OutDegree (OD).
  */
object Heuristics {

  /** RA: `b` uniformly random distinct non-seed vertices, deterministic in
    * `seed`: the first `b` of `scala.util.Random.shuffle` over the non-seed
    * ids, replayed on an `Int` array by [[Rng.shuffle]].
    */
  def rand(g: ProbGraph, seeds: Set[Int], b: Int, seed: Long): Seq[Int] =
    Rng.shuffle(new Random(seed), nonSeeds(g, seeds)).take(b).toSeq

  /** OD: the `b` non-seed vertices with the highest out-degree (ties broken
    * by smallest id).
    */
  def outDegree(g: ProbGraph, seeds: Set[Int], b: Int): Seq[Int] = {
    val pool = nonSeeds(g, seeds)
    val k = math.min(math.max(b, 0), pool.length)
    if (k == 0) Seq.empty
    else {
      // The k-th highest out-degree `cut`: every vertex above it is taken,
      // and the smallest ids at it fill the rest.
      var maxDeg = 0
      var i = 0
      while (i < pool.length) { maxDeg = math.max(maxDeg, g.outDegree(pool(i))); i += 1 }
      val atDeg = new Array[Int](maxDeg + 1)
      i = 0
      while (i < pool.length) { atDeg(g.outDegree(pool(i))) += 1; i += 1 }
      var cut = maxDeg
      var atLeastCut = atDeg(cut)
      while (atLeastCut < k) { cut -= 1; atLeastCut += atDeg(cut) }
      var fromCut = k - (atLeastCut - atDeg(cut))
      // Keys (-outDegree, id), one Long each, sorted.
      val keys = new Array[Long](k)
      var t = 0
      i = 0
      while (i < pool.length) {
        val v = pool(i)
        val d = g.outDegree(v)
        if (d > cut || (d == cut && fromCut > 0)) {
          if (d == cut) fromCut -= 1
          keys(t) = (-d.toLong << 32) | v
          t += 1
        }
        i += 1
      }
      java.util.Arrays.sort(keys)
      val top = new Array[Int](k)
      i = 0
      while (i < k) { top(i) = keys(i).toInt; i += 1 }
      top.toSeq
    }
  }

  /** The non-seed vertex ids of `g`, ascending, with `seeds` checked as
    * every algorithm checks them ([[Blocking.rootsOf]]).
    */
  private def nonSeeds(g: ProbGraph, seeds: Set[Int]): Array[Int] = {
    val isSeed = Blocking.maskOf(g.n, Blocking.rootsOf(g, seeds))
    java.util.stream.IntStream.range(0, g.n).filter(!isSeed(_)).toArray
  }
}

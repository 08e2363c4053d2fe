package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Synthetic SNAP-like social graphs.
  *
  * The image is offline, so the paper's 8 SNAP datasets are substituted with
  * deterministic Chung–Lu-style power-law graphs: endpoint `i` of each edge
  * is drawn with weight `1/(i+1)` through a shuffled id permutation
  * (so the hubs are not the low ids), self-loops and duplicate edges are
  * rejected. Directedness is preserved (an undirected dataset becomes both
  * directions of every sampled pair, as the paper does). The generators are
  * deterministic in `seed`, so every algorithm and the DuckDB oracle see the
  * same graph.
  */
object SocialGraphGen {

  /** Power-law endpoint sampler: cumulative weights + binary search. */
  private final class ZipfSampler(n: Int, perm: Array[Int]) {
    private val cum = new Array[Double](n)
    private var acc = 0.0
    // pow, not a division: 1.0 / (i + 1) differs from it in the last bit
    // for some i, which would move draws and so change every dataset.
    for (i <- 0 until n) { acc += math.pow(i + 1.0, -1.0); cum(i) = acc }

    def draw(rnd: Random): Int = {
      val x = rnd.nextDouble() * acc
      var lo = 0; var hi = n - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) < x) lo = mid + 1 else hi = mid
      }
      perm(lo)
    }
  }

  /** Generate a power-law graph with `n` vertices and (about) `mEdges`
    * distinct edges; for `directed = false` each sampled pair contributes
    * both directions (so the returned graph has up to `2 * mEdges` directed
    * edges). All probabilities are 1.0 — assign a model with [[PropModels]].
    */
  def powerLaw(n: Int, mEdges: Int, directed: Boolean, seed: Long): ProbGraph = {
    require(n >= 2, "need at least 2 vertices")
    val rnd = new Random(seed)
    val permSrc = rnd.shuffle((0 until n).toVector).toArray
    val permDst = rnd.shuffle((0 until n).toVector).toArray
    val srcSampler = new ZipfSampler(n, permSrc)
    val dstSampler = new ZipfSampler(n, permDst)

    val seen = mutable.HashSet.empty[Long]
    val edges = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    var attempts = 0
    val maxAttempts = 50L * mEdges max 1000L
    def key(u: Int, v: Int): Long = u.toLong * n + v
    while (seen.size < mEdges && attempts < maxAttempts) {
      attempts += 1
      val u = srcSampler.draw(rnd)
      val v = dstSampler.draw(rnd)
      if (u != v) {
        val (a, b) = if (directed) (u, v) else (math.min(u, v), math.max(u, v))
        if (seen.add(key(a, b))) {
          edges += ((a, b, 1.0))
          if (!directed) edges += ((b, a, 1.0))
        }
      }
    }
    ProbGraph.fromEdges(n, edges)
  }
}

/** Propagation probability models of the paper's experiments (§VI-A). */
object PropModels {

  /** Trivalency model: each edge independently gets a probability drawn
    * uniformly from {0.1, 0.01, 0.001}, deterministically in `seed`.
    */
  def trivalency(g: ProbGraph, seed: Long): ProbGraph = {
    val choices = Array(0.1, 0.01, 0.001)
    g.mapProbs { (e, _, _) =>
      val u = repro.util.Rng.edgeUniform(repro.util.Rng.splitmix64(seed), e)
      choices((u * 3).toInt.min(2))
    }
  }

  /** Weighted-cascade model: `p(u, v) = 1 / inDegree(v)`. */
  def weightedCascade(g: ProbGraph): ProbGraph = {
    val din = g.inDegrees
    g.mapProbs((_, _, v) => 1.0 / din(v))
  }
}

package repro.graph

import repro.util.Rng
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

  /** Power-law endpoint sampler: cumulative weights + binary search, started
    * from a guide table of `n` equal-width buckets of [0, acc).
    */
  private[graph] final class ZipfSampler(n: Int, perm: Array[Int]) {
    private[graph] val cum = new Array[Double](n)
    private var acc = 0.0
    // pow, not a division: 1.0 / (i + 1) differs from it in the last bit
    // for some i, which would move draws and so change every dataset.
    for (i <- 0 until n) { acc += math.pow(i + 1.0, -1.0); cum(i) = acc }
    private val scale = n / acc
    // guide(k): the first index whose cum reaches k·acc/n, at most n - 1.
    private val guide = new Array[Int](n + 1)
    for (k <- 1 to n) { var i = guide(k - 1); while (i < n - 1 && cum(i) < k / scale) i += 1; guide(k) = i }

    def draw(rnd: Random): Int = perm(index(rnd.nextDouble() * acc))

    /** The full binary search's first `i` with `cum(i) >= x` (else `n - 1`),
      * searched within `x`'s bucket when the bucket's bounds bracket `x`.
      */
    private[graph] def index(x: Double): Int = {
      val k = math.min((x * scale).toInt, n - 1)
      var lo = guide(k); var hi = guide(k + 1)
      if ((lo > 0 && cum(lo - 1) >= x) || cum(hi) < x) { lo = 0; hi = n - 1 }
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) < x) lo = mid + 1 else hi = mid
      }
      lo
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
    val permSrc = Rng.shuffle(rnd, Array.range(0, n))
    val permDst = Rng.shuffle(rnd, Array.range(0, n))
    val srcSampler = new ZipfSampler(n, permSrc)
    val dstSampler = new ZipfSampler(n, permDst)

    // At most `maxPairs` distinct pairs are ever added; their keys u·n + v ≥ 0
    // go in an insert-only open-addressing table at most half full, with
    // linear probing and -1 marking a free slot.
    val maxPairs = math.min(math.max(mEdges, 0).toLong, n.toLong * (n - 1) / (if (directed) 1 else 2))
    require(maxPairs <= (1 << 28), s"$mEdges pairs on $n vertices exceed the generator's ${1 << 28}")
    val seen = new Array[Long](math.max(2, Integer.highestOneBit(maxPairs.toInt) << 2))
    java.util.Arrays.fill(seen, -1L)
    val src, dst = new Array[Int](if (directed) maxPairs.toInt else 2 * maxPairs.toInt)
    var pairs, m = 0
    var attempts = 0L
    val maxAttempts = 50L * mEdges max 1000L
    while (pairs < mEdges && attempts < maxAttempts) {
      attempts += 1
      val u = srcSampler.draw(rnd)
      val v = dstSampler.draw(rnd)
      if (u != v) {
        val a = if (directed) u else math.min(u, v)
        val b = if (directed) v else math.max(u, v)
        val key = a.toLong * n + b
        var slot = (Rng.splitmix64(key) & (seen.length - 1)).toInt
        while (seen(slot) != -1L && seen(slot) != key) slot = (slot + 1) & (seen.length - 1)
        if (seen(slot) == -1L) {
          seen(slot) = key; pairs += 1
          src(m) = a; dst(m) = b; m += 1
          if (!directed) { src(m) = b; dst(m) = a; m += 1 }
        }
      }
    }
    val probs = new Array[Double](m)
    java.util.Arrays.fill(probs, 1.0)
    ProbGraph.fromArrays(n, m, src, dst, probs)
  }
}

/** Propagation probability models of the paper's experiments (§VI-A). */
object PropModels {

  /** Trivalency model: each edge independently gets a probability drawn
    * uniformly from {0.1, 0.01, 0.001}, deterministically in `seed`.
    */
  def trivalency(g: ProbGraph, seed: Long): ProbGraph = {
    val choices = Array(0.1, 0.01, 0.001)
    val key = Rng.splitmix64(seed)
    val p = new Array[Double](g.m)
    var e = 0
    while (e < p.length) { p(e) = choices(math.min((Rng.edgeUniform(key, e) * 3).toInt, 2)); e += 1 }
    new ProbGraph(g.n, g.offsets, g.targets, p)
  }

  /** Weighted-cascade model: `p(u, v) = 1 / inDegree(v)`. */
  def weightedCascade(g: ProbGraph): ProbGraph = {
    val din = g.inDegrees
    val p = new Array[Double](g.m)
    var e = 0
    while (e < p.length) { p(e) = 1.0 / din(g.targets(e)); e += 1 }
    new ProbGraph(g.n, g.offsets, g.targets, p)
  }
}

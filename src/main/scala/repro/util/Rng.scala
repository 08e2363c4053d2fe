package repro.util

/** Deterministic, stateless pseudo-randomness for live-edge sampling.
  *
  * The IC live-edge sampler must decide, for a given (sample, edge) pair,
  * whether the edge survives — and the decision must be *independent of
  * traversal order* so that the same sampled world is seen by every
  * algorithm that evaluates it (common random numbers for BaselineGreedy,
  * ExactBlocker and the estimators). A stateful `java.util.Random` stream
  * would misalign as soon as two traversals visit edges in different
  * orders, so every decision here is a pure hash of (sampleSeed, edgeId).
  */
object Rng {
  private final val Golden = 0x9e3779b97f4a7c15L

  /** SplitMix64 finalizer — a high-quality 64-bit mixing function. */
  def splitmix64(x0: Long): Long = {
    var x = x0 + Golden
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  /** Map a 64-bit hash to a double uniform in [0, 1). */
  def toUnitDouble(x: Long): Double = (x >>> 11) * 1.1102230246251565e-16 // 2^-53

  /** Seed for the `id`-th sampled world derived from a master seed. */
  def sampleSeed(master: Long, id: Long): Long =
    splitmix64(master ^ splitmix64(id))

  /** The 64-bit hash of edge `edge` in the world keyed by `sampleSeed`. */
  def edgeHash(sampleSeed: Long, edge: Int): Long =
    splitmix64(sampleSeed + (edge.toLong + 1L) * Golden)

  /** Pure uniform draw for edge `edge` in the world keyed by `sampleSeed`. */
  def edgeUniform(sampleSeed: Long, edge: Int): Double =
    toUnitDouble(edgeHash(sampleSeed, edge))

  /** Live-edge decision: does edge `edge` with probability `p` survive? */
  def edgeKeep(sampleSeed: Long, edge: Int, p: Double): Boolean =
    p >= 1.0 || (p > 0.0 && edgeUniform(sampleSeed, edge) < p)

  /** The integer cut of a probability `p` in [0, 1], read as unsigned:
    * ⌊p·2³²⌋, or 2³² − 1 when p ≥ 1.
    */
  def cut(p: Double): Int = if (p >= 1.0) -1 else (p * 4294967296.0).toLong.toInt

  /** [[edgeKeep]] of edge `edge` of a graph whose probabilities are `probs`
    * and their [[cut]]s `cuts`, decided on the hash's top 32 bits H:
    * keep when H < cut, drop when H > cut, and ask [[edgeKeep]] on a tie,
    * the only case that reads `probs`. It is the same decision: with
    * K = hash >>> 11, so that [[edgeKeep]] keeps iff K < p·2⁵³, and
    * H = ⌊K / 2²¹⌋, H < cut gives K < cut·2²¹ ≤ p·2⁵³, and H > cut gives
    * K ≥ (cut + 1)·2²¹ > p·2⁵³.
    */
  def cutKeep(sampleSeed: Long, edge: Int, cuts: Array[Int], probs: Array[Double]): Boolean = {
    val h = edgeHash(sampleSeed, edge) >>> 32
    val c = cuts(edge) & 0xffffffffL
    h < c || (h == c && edgeKeep(sampleSeed, edge, probs(edge)))
  }

  /** Shuffle `a` in place exactly as `scala.util.Random.shuffle` orders the
    * same elements with the same `rnd`: swap(k − 1, rnd.nextInt(k)) for k
    * from `a.length` down to 2. Returns `a`.
    */
  def shuffle(rnd: scala.util.Random, a: Array[Int]): Array[Int] = {
    var k = a.length
    while (k >= 2) {
      val j = rnd.nextInt(k)
      val t = a(k - 1); a(k - 1) = a(j); a(j) = t
      k -= 1
    }
    a
  }
}

package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.util.Rng

/** Immutable directed graph with a propagation probability on every edge,
  * stored in CSR (compressed sparse row) form over vertex ids `0 until n`.
  *
  * This is the local substrate every algorithm kernel runs on:
  * `repro.Execution` broadcasts a graph to the executors once per Spark
  * context, and each task walks the CSR arrays directly. Every later job on
  * the same object reuses that broadcast, which is sound only because a
  * graph never changes: no method writes its arrays, and [[mapProbs]]
  * returns a new graph.
  * [[toDF]] gives the edge table `DataFrame(src, dst, p)` for Table IV's
  * degree statistics and SQL checks.
  *
  * @param offsets CSR row offsets, size `n + 1`
  * @param targets edge targets grouped by source, size `m`
  * @param probs   per-edge propagation probability, aligned with `targets`
  *
  * Each graph also carries `cuts`, every probability's integer cut
  * (`Rng.cut`), so that a sampled world decides its coins on the hash's top
  * 32 bits (`Rng.cutKeep`); a graph that is never sampled never makes them.
  */
final class ProbGraph private[graph] (
    val n: Int,
    val offsets: Array[Int],
    val targets: Array[Int],
    val probs: Array[Double])
    extends Serializable {

  require(offsets.length == n + 1, s"offsets length ${offsets.length} != n+1")
  require(targets.length == probs.length, "targets/probs length mismatch")

  /** `Rng.cut` of every edge's probability, aligned with `targets`; made
    * once, when the graph is first sampled.
    */
  private[repro] lazy val cuts: Array[Int] = {
    val c = new Array[Int](probs.length)
    var e = 0
    while (e < c.length) { c(e) = Rng.cut(probs(e)); e += 1 }
    c
  }

  /** Number of directed edges. */
  def m: Int = targets.length

  /** Out-degree of vertex `u`. */
  def outDegree(u: Int): Int = offsets(u + 1) - offsets(u)

  /** Out-neighbors of `u` (targets of its edges, duplicates preserved). */
  def outNeighbors(u: Int): IndexedSeq[Int] =
    (offsets(u) until offsets(u + 1)).map(targets)

  /** In-degree of every vertex (computed once, cached). */
  lazy val inDegrees: Array[Int] = {
    val d = new Array[Int](n)
    var e = 0
    while (e < m) { d(targets(e)) += 1; e += 1 }
    d
  }

  /** All edges as `(src, dst, p)` triples in CSR order. */
  def edgeTriples: IndexedSeq[(Int, Int, Double)] =
    for { u <- 0 until n; e <- offsets(u) until offsets(u + 1) }
      yield (u, targets(e), probs(e))

  /** The graph after blocking `blocked` vertices: every edge incident to a
    * blocked vertex is removed (Definition 2 sets incoming probabilities to
    * 0; outgoing edges of a blocker can never fire because it is never
    * activated, so dropping both sides equals `G[V \ B]` for spread).
    * Vertex ids are preserved.
    */
  def blockVertices(blocked: Array[Boolean]): ProbGraph = {
    require(blocked.length == n, "blocked mask must have length n")
    val kept = edgeTriples.filter { case (u, v, _) => !blocked(u) && !blocked(v) }
    ProbGraph.fromEdges(n, kept)
  }

  /** Same graph with probabilities replaced by `f(edgeIdx, src, dst)`, each
    * of which must lie in [0, 1].
    */
  def mapProbs(f: (Int, Int, Int) => Double): ProbGraph = {
    val p2 = new Array[Double](m)
    var u = 0
    while (u < n) {
      var e = offsets(u)
      while (e < offsets(u + 1)) {
        val p = f(e, u, targets(e))
        require(p >= 0.0 && p <= 1.0, s"probability $p outside [0,1] on ($u,${targets(e)})")
        p2(e) = p
        e += 1
      }
      u += 1
    }
    new ProbGraph(n, offsets, targets, p2)
  }

  /** Canonical distributed form: `DataFrame(src: int, dst: int, p: double)`. */
  def toDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    edgeTriples.toDF("src", "dst", "p")
  }
}

object ProbGraph {

  /** Build a CSR graph from edge triples (any order; order within a source
    * is preserved from the input, making construction deterministic).
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)]): ProbGraph = {
    val m = edges.size
    val src, dst = new Array[Int](m)
    val probs = new Array[Double](m)
    var i = 0
    edges.foreach { case (u, v, p) => src(i) = u; dst(i) = v; probs(i) = p; i += 1 }
    fromArrays(n, m, src, dst, probs)
  }

  /** Build a CSR graph from the first `m` edges `(src(i), dst(i), probs(i))`,
    * in any order; edges within a source keep their input order, so the
    * construction is deterministic. Every graph's CSR is built here.
    */
  def fromArrays(n: Int, m: Int, src: Array[Int], dst: Array[Int], probs: Array[Double]): ProbGraph = {
    require(m >= 0 && src.length >= m && dst.length >= m && probs.length >= m,
      s"$m edges but src/dst/probs hold ${src.length}/${dst.length}/${probs.length}")
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < m) {
      val u = src(i); val v = dst(i); val p = probs(i)
      if (u < 0 || u >= n || v < 0 || v >= n)
        throw new IllegalArgumentException(s"edge ($u,$v) out of range n=$n")
      if (!(p >= 0.0 && p <= 1.0))
        throw new IllegalArgumentException(s"probability $p outside [0,1] on ($u,$v)")
      offsets(u + 1) += 1
      i += 1
    }
    i = 0
    while (i < n) { offsets(i + 1) += offsets(i); i += 1 }
    val cursor = java.util.Arrays.copyOf(offsets, n)
    val targets = new Array[Int](m)
    val ps = new Array[Double](m)
    i = 0
    while (i < m) {
      val pos = cursor(src(i)); cursor(src(i)) = pos + 1
      targets(pos) = dst(i); ps(pos) = probs(i)
      i += 1
    }
    new ProbGraph(n, offsets, targets, ps)
  }
}

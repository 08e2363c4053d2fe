package repro.exp

import repro.graph.ProbGraph
import scala.collection.mutable
import scala.util.Random

/** Small-subgraph extraction for the Exact-vs-GR experiment (Tables V/VI):
  * the paper "iteratively extracts a vertex and all its neighbors, until the
  * number of extracted vertices reaches 100" — we do the same at a smaller
  * target so the Exact enumeration stays inside the CI budget (DESIGN.md §4).
  */
object Extracts {

  /** Extract an induced subgraph of ≈`targetN` vertices by repeatedly
    * absorbing a random already-extracted vertex's (in+out) neighborhood.
    * Vertex ids are relabelled to `0 until size`; edge probabilities are
    * inherited. Returns the subgraph and the old→new id map.
    */
  def neighborhoodExtract(g: ProbGraph, targetN: Int, seed: Long): (ProbGraph, Map[Int, Int]) = {
    require(targetN <= g.n, s"cannot extract $targetN of ${g.n} vertices")
    val rnd = new Random(seed)
    // Row v of the reversed graph lists v's in-neighbours by ascending source.
    val sources = new Array[Int](g.m)
    for (u <- 0 until g.n) java.util.Arrays.fill(sources, g.offsets(u), g.offsets(u + 1), u)
    val rev = ProbGraph.fromArrays(g.n, g.m, g.targets, sources, g.probs)
    val newId = Array.fill(g.n)(-1)
    val ids = mutable.ArrayBuffer.empty[Int]
    val queue = mutable.ArrayBuffer.empty[Int]

    def absorb(v: Int): Unit = if (newId(v) < 0) { newId(v) = ids.size; ids += v; queue += v }

    absorb(rnd.nextInt(g.n))
    while (ids.size < targetN) {
      val pivot =
        if (queue.nonEmpty) queue.remove(rnd.nextInt(queue.size))
        else { val v = rnd.nextInt(g.n); absorb(v); v }
      for (h <- Seq(g, rev); e <- h.offsets(pivot) until h.offsets(pivot + 1)) absorb(h.targets(e))
    }
    val src, dst = new Array[Int](g.m)
    val probs = new Array[Double](g.m)
    var k = 0
    for (u <- 0 until g.n if newId(u) >= 0; e <- g.offsets(u) until g.offsets(u + 1) if newId(g.targets(e)) >= 0) {
      src(k) = newId(u); dst(k) = newId(g.targets(e)); probs(k) = g.probs(e); k += 1
    }
    (ProbGraph.fromArrays(ids.size, k, src, dst, probs), ids.zipWithIndex.toMap)
  }
}

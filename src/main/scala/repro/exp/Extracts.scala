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
    val rnd = new Random(seed)
    val chosen = mutable.LinkedHashSet.empty[Int]
    val queue = mutable.ArrayBuffer.empty[Int]

    def absorb(v: Int): Unit = if (chosen.add(v)) queue += v

    absorb(rnd.nextInt(g.n))
    while (chosen.size < targetN) {
      val pivot =
        if (queue.nonEmpty) queue.remove(rnd.nextInt(queue.size))
        else { val v = rnd.nextInt(g.n); absorb(v); v }
      g.outNeighbors(pivot).foreach(absorb)
      for (u <- 0 until g.n; v <- g.outNeighbors(u) if v == pivot) absorb(u)
    }
    val ids = chosen.toIndexedSeq
    val map = ids.zipWithIndex.toMap
    val edges = g.edgeTriples.collect {
      case (u, v, p) if map.contains(u) && map.contains(v) => (map(u), map(v), p)
    }
    (ProbGraph.fromEdges(ids.size, edges), map)
  }
}

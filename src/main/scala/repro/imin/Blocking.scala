package repro.imin

import repro.domtree.DominatorTree
import repro.graph.ProbGraph

/** Shared plumbing for the blocker-selection algorithms. */
object Blocking {

  /** Boolean mask over `n` vertices from a blocker collection. */
  def maskOf(n: Int, blockers: Iterable[Int]): Array[Boolean] = {
    val mask = new Array[Boolean](n)
    blockers.foreach(mask(_) = true)
    mask
  }

  /** Vertices reachable from `roots` over positive-probability edges: the
    * only vertices whose blocking can decrease the spread.
    */
  def support(g: ProbGraph, roots: Array[Int]): Array[Boolean] = {
    val ws = new DominatorTree.Workspace(g.n)
    val count = DominatorTree.walk(g, roots, null, e => g.probs(e) > 0.0, ws)
    val support = new Array[Boolean](g.n)
    (1 to count).foreach(d => support(ws.vertexOf(d)) = true)
    support
  }

  /** Deterministic argmax of `delta` over vertices satisfying `allowed`:
    * largest delta, ties broken by smallest id; -1 when nothing is allowed.
    */
  def argmaxDelta(delta: Array[Double], allowed: Int => Boolean): Int = {
    var best = -1
    var v = 0
    while (v < delta.length) {
      if (allowed(v) && (best == -1 || delta(v) > delta(best))) best = v
      v += 1
    }
    best
  }

  /** The seed set as a sorted root array, checked against `g`. */
  def rootsOf(g: ProbGraph, seeds: Set[Int]): Array[Int] = {
    require(seeds.nonEmpty, "seed set must be non-empty")
    seeds.foreach(s => require(s >= 0 && s < g.n, s"seed $s out of range"))
    seeds.toArray.sorted
  }
}

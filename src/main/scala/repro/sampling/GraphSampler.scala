package repro.sampling

import repro.graph.ProbGraph
import repro.util.Rng

/** Live-edge sampling of the IC model (Definition 4 of the paper): the
  * world keyed by `sampleSeed` keeps each edge `e` independently with
  * probability `p(e)`. Decisions are pure hashes of `(sampleSeed, e)`
  * ([[repro.util.Rng]]), so the same world is seen regardless of traversal
  * order or blocker set — common random numbers across all algorithms.
  */
object GraphSampler {

  /** Edge predicate of the sampled world `sampleSeed`. */
  def liveEdge(g: ProbGraph, sampleSeed: Long): Int => Boolean =
    (e: Int) => Rng.edgeKeep(sampleSeed, e, g.probs(e))

  /** Materialized live-edge mask (tests / oracle paths). */
  def edgeMask(g: ProbGraph, sampleSeed: Long): Array[Boolean] =
    Array.tabulate(g.m)(liveEdge(g, sampleSeed))

  /** The count-only reachability kernel of one world, which MCS, exact
    * spread and the candidate support run on. Dominator trees and BG's and
    * Exact's sweeps build a world with `DominatorTree.walk` instead, which
    * draws the coins of edges into reached vertices too. `reach` marks in
    * `vis` each vertex reachable from `roots` over edges satisfying
    * `keepEdge`, never entering a `blocked` vertex (null: none; a blocked
    * root counts as unreached), and returns how many vertices it marked.
    * Vertices already marked in `vis` are neither entered nor counted.
    * `keepEdge` is asked only about edges into unmarked, unblocked vertices.
    */
  def reach(g: ProbGraph, roots: Array[Int], blocked: Array[Boolean], vis: Array[Boolean])(
      keepEdge: Int => Boolean): Int = {
    val offsets = g.offsets
    val targets = g.targets
    // Grows on demand, so a small reach allocates little on a large graph.
    var stack = new Array[Int](math.max(16, roots.length))
    var sp = 0
    var i = 0
    while (i < roots.length) {
      val r = roots(i)
      if (!vis(r) && (blocked == null || !blocked(r))) { vis(r) = true; stack(sp) = r; sp += 1 }
      i += 1
    }
    var count = sp
    while (sp > 0) {
      sp -= 1
      val u = stack(sp)
      var e = offsets(u)
      val end = offsets(u + 1)
      while (e < end) {
        val v = targets(e)
        if (!vis(v) && (blocked == null || !blocked(v)) && keepEdge(e)) {
          if (sp == stack.length) stack = java.util.Arrays.copyOf(stack, 2 * sp)
          vis(v) = true; stack(sp) = v; sp += 1; count += 1
        }
        e += 1
      }
    }
    count
  }

  /** Number of vertices reachable from `roots` in the sampled world (σ of
    * Table II, generalized to a root set), optionally with blocked vertices.
    * A blocked root counts as not reachable.
    */
  def reachCount(
      g: ProbGraph,
      roots: Array[Int],
      sampleSeed: Long,
      blocked: Array[Boolean] = null): Int =
    reach(g, roots, blocked, new Array[Boolean](g.n))(liveEdge(g, sampleSeed))
}

package repro.sampling

import repro.Scratch
import repro.domtree.DominatorTree
import repro.graph.ProbGraph
import repro.util.Rng

/** Live-edge sampling of the IC model (Definition 4 of the paper): the
  * world keyed by `sampleSeed` keeps each edge `e` independently with
  * probability `p(e)`. Decisions are pure hashes of `(sampleSeed, e)`
  * ([[repro.util.Rng]]), so the same world is seen regardless of traversal
  * order or blocker set — common random numbers across all algorithms.
  */
object GraphSampler {

  /** Edge predicate of the sampled world `sampleSeed`, by [[Rng.edgeKeep]]:
    * the reference for the walk of a sample seed, which decides the same
    * coins in integers (`Rng.cutKeep`) without this closure.
    */
  def liveEdge(g: ProbGraph, sampleSeed: Long): Int => Boolean =
    (e: Int) => Rng.edgeKeep(sampleSeed, e, g.probs(e))

  /** Materialized live-edge mask (tests / oracle paths). */
  def edgeMask(g: ProbGraph, sampleSeed: Long): Array[Boolean] =
    Array.tabulate(g.m)(liveEdge(g, sampleSeed))

  /** Number of vertices reachable from `roots` in the sampled world (σ of
    * Table II, generalized to a root set), optionally with blocked vertices,
    * walked on the thread's [[repro.Scratch]]. A blocked root counts as not
    * reachable.
    */
  def reachCount(
      g: ProbGraph,
      roots: Array[Int],
      sampleSeed: Long,
      blocked: Array[Boolean] = null): Int =
    Scratch.using(g.n) { s =>
      val count = DominatorTree.walk(g, roots, blocked, sampleSeed, s.ws)
      s.ws.reset()
      count
    }
}

package repro.sampling

import repro.graph.ProbGraph
import repro.util.Rng
import scala.collection.mutable

/** The tests' reach oracle, written apart from the production walk
  * (`DominatorTree.walk`): a breadth-first search with plain collections
  * over the graph's `offsets/targets`.
  */
object ReachOracle {

  /** The vertices reachable from the unblocked `roots` over edges satisfying
    * `keepEdge`, never entering a `blocked` vertex (null: none).
    */
  def reach(g: ProbGraph, roots: Iterable[Int], blocked: Array[Boolean], keepEdge: Int => Boolean): collection.Set[Int] = {
    def open(v: Int) = blocked == null || !blocked(v)
    val seen = mutable.BitSet.empty
    val queue = mutable.Queue.empty[Int]
    for (r <- roots if open(r) && seen.add(r)) queue.enqueue(r)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      for (e <- g.offsets(u) until g.offsets(u + 1)) {
        val v = g.targets(e)
        if (!seen(v) && open(v) && keepEdge(e)) { seen += v; queue.enqueue(v) }
      }
    }
    seen
  }

  /** The vertices reachable from `roots` in the world keyed by `sampleSeed`. */
  def world(g: ProbGraph, roots: Iterable[Int], blocked: Array[Boolean], sampleSeed: Long): collection.Set[Int] =
    reach(g, roots, blocked, GraphSampler.liveEdge(g, sampleSeed))

  /** Total reach count over the worlds `0 until r` keyed by `masterSeed`:
    * what `MonteCarloSpread.reachSum(g, roots, blocked, masterSeed, 0, r)`
    * must return.
    */
  def sum(g: ProbGraph, roots: Iterable[Int], blocked: Array[Boolean], masterSeed: Long, r: Int): Long =
    (0 until r).map(i => world(g, roots, blocked, Rng.sampleSeed(masterSeed, i)).size.toLong).sum
}

package repro.imin

import repro.Scratch
import repro.domtree.DominatorTree
import repro.graph.ProbGraph
import repro.util.Rng
import java.util.stream.IntStream
import scala.collection.mutable.ArrayBuffer

/** Shared plumbing for the blocker-selection algorithms. */
object Blocking {

  /** Boolean mask over `n` vertices from a blocker collection; a blocker
    * outside `[0, n)` is rejected.
    */
  def maskOf(n: Int, blockers: Iterable[Int]): Array[Boolean] = {
    val mask = new Array[Boolean](n)
    blockers.foreach { v =>
      require(v >= 0 && v < n, s"blocker $v out of range [0, $n)")
      mask(v) = true
    }
    mask
  }

  /** The non-root vertices reachable from `roots` over positive-probability
    * edges: the only vertices whose blocking can decrease the spread.
    */
  def support(g: ProbGraph, roots: Array[Int]): Array[Boolean] = Scratch.using(g.n) { s =>
    val count = DominatorTree.walk(g, roots, null, e => g.probs(e) > 0.0, s.ws)
    val support = new Array[Boolean](g.n)
    (1 to count).foreach(d => support(s.ws.vertexOf(d)) = true)
    s.ws.reset()
    roots.foreach(support(_) = false)
    support
  }

  /** One greedy round's choice: the unblocked `allowed` vertex of largest
    * decrease `delta`, smallest id on ties; -1 when none is left or, with
    * `whileGain`, when the best decrease is not positive.
    */
  private[imin] def argmaxDelta(
      delta: Array[Double],
      allowed: Array[Boolean],
      blocked: Array[Boolean],
      whileGain: Boolean): Int = {
    var best = -1
    var v = 0
    while (v < delta.length) {
      if (allowed(v) && !blocked(v) && (best == -1 || delta(v) > delta(best))) best = v
      v += 1
    }
    if (best >= 0 && whileGain && delta(best) <= 0.0) -1 else best
  }

  /** The seed set as a sorted root array, checked against `g`. */
  def rootsOf(g: ProbGraph, seeds: Set[Int]): Array[Int] = {
    require(seeds.nonEmpty, "seed set must be non-empty")
    seeds.foreach(s => require(s >= 0 && s < g.n, s"seed $s out of range"))
    seeds.toArray.sorted
  }

  /** The greedy rounds of BG, AG and GR's first phase (Algs. 1, 3 and 4):
    * round i prices the vertices with `decrease(splitmix64(masterSeed ^
    * (i + 1)), blockers)`, where `blockers` are the vertices blocked so far
    * as ascending ids, and blocks their [[argmaxDelta]] in `blocked` (empty
    * at the start), until `rounds` are blocked, no allowed vertex is left
    * to price, or the choice is -1. Returns the blockers in insertion order.
    */
  private[imin] def greedy(
      rounds: Int,
      masterSeed: Long,
      allowed: Array[Boolean],
      blocked: Array[Boolean],
      whileGain: Boolean)(decrease: (Long, Array[Int]) => Array[Double]): ArrayBuffer[Int] = {
    val order = ArrayBuffer.empty[Int]
    var x = 0
    while (order.length < rounds && x >= 0) {
      x =
        if (!IntStream.range(0, allowed.length).anyMatch(v => allowed(v) && !blocked(v))) -1
        else argmaxDelta(decrease(Rng.splitmix64(masterSeed ^ (order.length + 1).toLong), order.toArray.sorted),
          allowed, blocked, whileGain)
      if (x >= 0) { blocked(x) = true; order += x }
    }
    order
  }
}

package repro.spread

import repro.domtree.DominatorTree
import repro.graph.ProbGraph

/** Exact expected spread under the IC model by enumerating the outcomes of
  * every *uncertain* edge (0 < p < 1). Feasible only when the number of
  * uncertain edges is small (≤ [[MaxUncertain]]) — the same regime as the
  * exact BDD computation [39] the paper uses on its 100-vertex extracts.
  * Used as ground truth for the toy graph (Examples 1–2) and for verifying
  * the estimators.
  */
object ExactSpread {
  val MaxUncertain = 22

  /** Exact activation probability of every vertex with seed set `roots`,
    * optionally with blocked vertices (Definition 1 / Definition 2).
    * Seeds have probability 1 (unless blocked — seeds cannot be blocked in
    * the problem, but the math tolerates it by treating them as absent).
    */
  def activationProbs(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean] = null): Array[Double] = {
    val uncertain = (0 until g.m).filter { e =>
      val p = g.probs(e)
      p > 0.0 && p < 1.0
    }.toArray
    require(
      uncertain.length <= MaxUncertain,
      s"${uncertain.length} uncertain edges exceed exact-enumeration limit $MaxUncertain")

    val probs = new Array[Double](g.n)
    val keepUncertain = new Array[Boolean](g.m)
    // An edge is live in this world if it is certain, or uncertain and on.
    val live = (e: Int) => g.probs(e) >= 1.0 || (g.probs(e) > 0.0 && keepUncertain(e))
    val ws = new DominatorTree.Workspace(g.n)
    val nCombos = 1L << uncertain.length
    var combo = 0L
    while (combo < nCombos) {
      var worldP = 1.0
      var i = 0
      while (i < uncertain.length) {
        val e = uncertain(i)
        val on = ((combo >>> i) & 1L) == 1L
        keepUncertain(e) = on
        worldP *= (if (on) g.probs(e) else 1.0 - g.probs(e))
        i += 1
      }
      val count = DominatorTree.walk(g, roots, blocked, live, ws)
      var d = 1
      while (d <= count) { probs(ws.vertexOf(d)) += worldP; d += 1 }
      ws.reset()
      combo += 1
    }
    probs
  }

  /** Exact expected spread E(S, G) = Σ_u P(u, S) (Definition 3; seeds count
    * with probability 1).
    */
  def spread(g: ProbGraph, roots: Array[Int], blocked: Array[Boolean] = null): Double =
    activationProbs(g, roots, blocked).sum

  /** Exact spread after blocking `blockers` (E(S, G[V \ B])). */
  def spreadWithBlockers(g: ProbGraph, roots: Array[Int], blockers: Iterable[Int]): Double = {
    val mask = new Array[Boolean](g.n)
    blockers.foreach(mask(_) = true)
    spread(g, roots, mask)
  }
}

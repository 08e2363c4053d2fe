package repro.domtree

import repro.graph.ProbGraph

/** An O(n·m) dominator oracle, independent of [[DominatorTree]]'s walk:
  * `u` dominates `v` iff `v` is unreachable from `root` once `u` is
  * removed; the immediate dominator is the deepest proper dominator.
  */
object BruteForceDominators {

  /** Immediate dominator per original vertex id (root -> root, unreachable
    * -> -1) over the edges satisfying `keepEdge`.
    */
  def idoms(g: ProbGraph, root: Int, keepEdge: Int => Boolean = _ => true): Array[Int] = {
    def reach(skip: Int): Array[Boolean] = {
      val vis = new Array[Boolean](g.n)
      if (root == skip) return vis
      val stack = new Array[Int](g.n)
      var sp = 0
      vis(root) = true; stack(sp) = root; sp += 1
      while (sp > 0) {
        sp -= 1
        val u = stack(sp)
        for (e <- g.offsets(u) until g.offsets(u + 1)) {
          val v = g.targets(e)
          if (keepEdge(e) && v != skip && !vis(v)) { vis(v) = true; stack(sp) = v; sp += 1 }
        }
      }
      vis
    }
    val base = reach(-1)
    val doms = Array.fill(g.n)(Set.empty[Int])
    for (v <- 0 until g.n if base(v)) doms(v) = Set(v)
    for (u <- 0 until g.n if base(u)) {
      val without = reach(u)
      for (v <- 0 until g.n if base(v) && !without(v)) doms(v) += u
    }
    val idom = Array.fill(g.n)(-1)
    idom(root) = root
    for (v <- 0 until g.n if base(v) && v != root) {
      val proper = doms(v) - v
      idom(v) = proper.maxBy(d => doms(d).size) // dominators form a chain
    }
    idom
  }
}

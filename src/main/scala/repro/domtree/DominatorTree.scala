package repro.domtree

import repro.graph.ProbGraph

/** Dominator trees via the Lengauer–Tarjan algorithm [53] (the "simple"
  * eval/link variant with path compression, O(m log n)).
  *
  * The tree is computed for the subgraph of `g` induced by an edge predicate
  * (the live edges of one sampled world) restricted to the vertices
  * reachable from a root set — exactly what Algorithm 2 of the paper needs.
  * The roots hang below a virtual root, dfn 0, so a seed set needs no §V
  * seed reduction: in every live-edge world each non-seed vertex has the
  * same dominator subtree as in that world blocked and then reduced to one
  * unified seed. All internal state lives in DFS-number ("dfn") space, in
  * a [[Workspace]] that one task reuses for all its samples, so a sample
  * costs time and allocation in proportion to what it reaches, not to n.
  */
object DominatorTree {

  /** The reusable state of [[compute]] for graphs of `n` vertices. Only
    * `dfn` has n entries; every other array grows with the reach of the
    * largest sample so far. After a call, entries `0 until count` of
    * `vertexOf`, `idom` and `size` describe its tree, dfn 0 being the
    * virtual root; `dfn` is back to −1 everywhere.
    */
  final class Workspace(val n: Int) {
    private[repro] val dfn: Array[Int] = Array.fill(n)(-1)
    /** dfns in use by the last sample, the virtual root included. */
    private[repro] var count = 0
    /** Original vertex of each dfn; −1 for the virtual root. */
    private[repro] var vertexOf = new Array[Int](16)
    /** Immediate dominator in dfn space; `idom(0) == 0`. */
    private[repro] var idom = new Array[Int](16)
    /** Dominator-subtree size of each dfn (Theorem 6: σ→u). */
    private[repro] var size = new Array[Int](16)

    private[domtree] var parent = new Array[Int](16)
    private[domtree] var stackV = new Array[Int](16)
    private[domtree] var stackE = new Array[Int](16)
    // Live edges met by the DFS, as (source dfn, target dfn) pairs.
    private[domtree] var edgeSrc = new Array[Int](16)
    private[domtree] var edgeDst = new Array[Int](16)
    private[domtree] var predOff = new Array[Int](17)
    private[domtree] var predSrc = new Array[Int](16)
    private[domtree] var semi = new Array[Int](16)
    private[domtree] var label = new Array[Int](16)
    private[domtree] var ancestor = new Array[Int](16)
    private[domtree] var bucketHead = new Array[Int](16)
    private[domtree] var bucketNext = new Array[Int](16)
    private[domtree] var chain = new Array[Int](16)

    /** Size the per-dfn arrays for `cnt` dfns and the edge arrays for `ne`
      * live edges.
      */
    private[domtree] def fit(cnt: Int, ne: Int): Unit = {
      if (idom.length < cnt) {
        val c = math.max(cnt, 2 * idom.length)
        idom = new Array[Int](c); size = new Array[Int](c)
        semi = new Array[Int](c); label = new Array[Int](c); ancestor = new Array[Int](c)
        bucketHead = new Array[Int](c); bucketNext = new Array[Int](c); chain = new Array[Int](c)
        predOff = new Array[Int](c + 1)
      }
      if (predSrc.length < ne) predSrc = new Array[Int](math.max(ne, 2 * predSrc.length))
    }
  }

  private def grown(a: Array[Int]): Array[Int] = java.util.Arrays.copyOf(a, 2 * a.length)

  /** The one dominator-tree kernel. Computes, into `ws`, the dominator tree
    * of the subgraph of `g` whose edges satisfy `keepEdge`, restricted to
    * the vertices reachable from a virtual root whose children are the
    * unblocked `roots`. It never enters a `blocked` vertex (null: none)
    * and asks `keepEdge` at most once per edge: only about the out-edges of
    * reached vertices into unblocked ones.
    */
  def compute(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      keepEdge: Int => Boolean,
      ws: Workspace): Unit = {
    require(ws.n == g.n, s"workspace for ${ws.n} vertices used on a graph of ${g.n}")
    val offsets = g.offsets
    val targets = g.targets
    val dfn = ws.dfn

    // --- Step 1: iterative DFS numbering from the virtual root --------------
    // Every live edge met is recorded, so the predecessor lists need no
    // second pass over the edges.
    var vertexOf = ws.vertexOf
    var parent = ws.parent
    var stackV = ws.stackV
    var stackE = ws.stackE
    var edgeSrc = ws.edgeSrc
    var edgeDst = ws.edgeDst
    vertexOf(0) = -1; parent(0) = 0
    var cnt = 1
    var ne = 0
    var ri = 0
    while (ri < roots.length) {
      val r = roots(ri)
      if (blocked == null || !blocked(r)) {
        var sp = 0
        if (dfn(r) < 0) {
          if (cnt == vertexOf.length) { vertexOf = grown(vertexOf); parent = grown(parent) }
          dfn(r) = cnt; vertexOf(cnt) = r; parent(cnt) = 0; cnt += 1
          stackV(0) = r; stackE(0) = offsets(r); sp = 1
        }
        // The virtual edge 0 -> r is a predecessor of r even when another
        // root's search reached r first.
        if (ne == edgeSrc.length) { edgeSrc = grown(edgeSrc); edgeDst = grown(edgeDst) }
        edgeSrc(ne) = 0; edgeDst(ne) = dfn(r); ne += 1
        while (sp > 0) {
          val u = stackV(sp - 1)
          val du = dfn(u)
          var e = stackE(sp - 1)
          val end = offsets(u + 1)
          var descended = false
          while (e < end && !descended) {
            val v = targets(e)
            if ((blocked == null || !blocked(v)) && keepEdge(e)) {
              var dv = dfn(v)
              if (dv < 0) {
                if (cnt == vertexOf.length) { vertexOf = grown(vertexOf); parent = grown(parent) }
                dv = cnt; dfn(v) = dv; vertexOf(dv) = v; parent(dv) = du; cnt += 1
                stackE(sp - 1) = e + 1
                if (sp == stackV.length) { stackV = grown(stackV); stackE = grown(stackE) }
                stackV(sp) = v; stackE(sp) = offsets(v); sp += 1
                descended = true
              }
              if (ne == edgeSrc.length) { edgeSrc = grown(edgeSrc); edgeDst = grown(edgeDst) }
              edgeSrc(ne) = du; edgeDst(ne) = dv; ne += 1
            }
            e += 1
          }
          if (!descended) sp -= 1
        }
      }
      ri += 1
    }
    ws.vertexOf = vertexOf; ws.parent = parent; ws.stackV = stackV; ws.stackE = stackE
    ws.edgeSrc = edgeSrc; ws.edgeDst = edgeDst
    ws.fit(cnt, ne)

    // --- Predecessor lists in dfn space (counting sort of the live edges) ---
    val predOff = ws.predOff
    val predSrc = ws.predSrc
    java.util.Arrays.fill(predOff, 0, cnt + 1, 0)
    var k = 0
    while (k < ne) { predOff(edgeDst(k)) += 1; k += 1 }
    var i = 1
    while (i < cnt) { predOff(i) += predOff(i - 1); i += 1 }
    k = 0
    while (k < ne) {
      val d = edgeDst(k)
      predOff(d) -= 1; predSrc(predOff(d)) = edgeSrc(k)
      k += 1
    }
    predOff(cnt) = ne

    // --- Steps 2-4: Lengauer-Tarjan with path compression -------------------
    val semi = ws.semi
    val label = ws.label
    val ancestor = ws.ancestor
    val dom = ws.idom
    val bucketHead = ws.bucketHead
    val bucketNext = ws.bucketNext
    val chain = ws.chain
    i = 0
    while (i < cnt) {
      semi(i) = i; label(i) = i; ancestor(i) = -1; bucketHead(i) = -1
      i += 1
    }

    def eval(v0: Int): Int = {
      if (ancestor(v0) < 0) v0
      else {
        // COMPRESS(v0): collect the chain of vertices whose grandparent in
        // the link forest exists, then relabel top-down.
        var len = 0
        var x = v0
        while (ancestor(ancestor(x)) >= 0) { chain(len) = x; len += 1; x = ancestor(x) }
        while (len > 0) {
          len -= 1
          val y = chain(len)
          val a = ancestor(y)
          if (semi(label(a)) < semi(label(y))) label(y) = label(a)
          ancestor(y) = ancestor(a)
        }
        label(v0)
      }
    }

    var w = cnt - 1
    while (w >= 1) {
      val p = parent(w)
      // Step 2: semidominator of w.
      var j = predOff(w)
      while (j < predOff(w + 1)) {
        val u = eval(predSrc(j))
        if (semi(u) < semi(w)) semi(w) = semi(u)
        j += 1
      }
      bucketNext(w) = bucketHead(semi(w)); bucketHead(semi(w)) = w
      ancestor(w) = p // LINK(parent(w), w)
      // Step 3: implicitly define idom for the bucket of parent(w).
      var v = bucketHead(p)
      bucketHead(p) = -1
      while (v >= 0) {
        val nx = bucketNext(v)
        val u = eval(v)
        dom(v) = if (semi(u) < semi(v)) u else p
        v = nx
      }
      w -= 1
    }
    // Step 4: explicit immediate dominators.
    dom(0) = 0
    w = 1
    while (w < cnt) {
      if (dom(w) != semi(w)) dom(w) = dom(dom(w))
      w += 1
    }

    // Subtree sizes: idom is always a DFS-tree ancestor, so idom(w) < w and
    // one reverse scan accumulates children before parents.
    val size = ws.size
    java.util.Arrays.fill(size, 0, cnt, 1)
    w = cnt - 1
    while (w >= 1) { size(dom(w)) += size(w); w -= 1 }

    // Leave dfn as it was found, touching only the reached vertices.
    i = 1
    while (i < cnt) { dfn(vertexOf(i)) = -1; i += 1 }
    ws.count = cnt
  }

  /** Dominator tree of one (sampled) graph from a single root.
    *
    * @param count    number of vertices reachable from the root
    * @param vertexOf original vertex id of each dfn in `0 until count`
    * @param idomDfn  immediate dominator in dfn space; `idomDfn(0) == 0`
    */
  final class Result(
      val count: Int,
      val vertexOf: Array[Int],
      private val dfnOf: Array[Int],
      val idomDfn: Array[Int]) {

    /** Is original vertex `v` reachable from the root? */
    def reachable(v: Int): Boolean = dfnOf(v) >= 0

    /** Immediate dominator of original vertex `v`; the root maps to itself;
      * -1 if `v` is unreachable.
      */
    def idomOf(v: Int): Int = {
      val d = dfnOf(v)
      if (d < 0) -1 else vertexOf(idomDfn(d))
    }

    /** Size of the dominator-tree subtree rooted at each dfn (Theorem 6:
      * this equals σ→u(s, g), the number of vertices whose every path from
      * the root passes through u). The root's entry is `count`.
      */
    def subtreeSizes: Array[Int] = {
      val size = Array.fill(count)(1)
      var w = count - 1
      while (w >= 1) { size(idomDfn(w)) += size(w); w -= 1 }
      size
    }

    /** Subtree size of original vertex `v` (0 if unreachable). */
    def subtreeSizeOf(v: Int): Int = {
      val sizes = subtreeSizes
      val d = dfnOf(v)
      if (d < 0) 0 else sizes(d)
    }
  }

  /** The dominator tree of the subgraph of `g` whose edges satisfy
    * `keepEdge`, restricted to vertices reachable from `root`: the kernel
    * with one root, renumbered so that the root is dfn 0.
    */
  def compute(g: ProbGraph, root: Int, keepEdge: Int => Boolean): Result = {
    val ws = new Workspace(g.n)
    compute(g, Array(root), null, keepEdge, ws)
    // The root is dfn 1 below the virtual root and dominates every other
    // reached vertex, so dropping dfn 0 shifts every dfn and idom by one.
    val count = ws.count - 1
    val vertexOf = java.util.Arrays.copyOfRange(ws.vertexOf, 1, ws.count)
    val idomDfn = new Array[Int](count)
    val dfnOf = ws.dfn
    var d = 0
    while (d < count) {
      if (d > 0) idomDfn(d) = ws.idom(d + 1) - 1
      dfnOf(vertexOf(d)) = d
      d += 1
    }
    new Result(count, vertexOf, dfnOf, idomDfn)
  }

  /** O(n·m) brute-force immediate dominators, for verification: `u`
    * dominates `v` iff `v` is unreachable from `root` once `u` is removed;
    * the immediate dominator is the deepest proper dominator.
    * Returns idom per original vertex id (root -> root, unreachable -> -1).
    */
  def bruteForceIdoms(g: ProbGraph, root: Int, keepEdge: Int => Boolean = _ => true): Array[Int] = {
    def reach(skip: Int): Array[Boolean] = {
      val vis = new Array[Boolean](g.n)
      if (root == skip) return vis
      val stack = new java.util.ArrayDeque[Integer]()
      vis(root) = true; stack.push(root)
      while (!stack.isEmpty) {
        val u = stack.pop().intValue()
        g.foreachOut(u) { (e, v, _) =>
          if (keepEdge(e) && v != skip && !vis(v)) { vis(v) = true; stack.push(v) }
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

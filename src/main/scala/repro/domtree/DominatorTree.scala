package repro.domtree

import repro.graph.ProbGraph
import repro.util.Rng

/** Dominator trees via the Lengauer–Tarjan algorithm [53] (the "simple"
  * eval/link variant with path compression, O(m log n)).
  *
  * The tree is computed for the subgraph of `g` of the live edges of one
  * sampled world (or of an explicit edge predicate) restricted to the
  * vertices reachable from a root set — exactly what Algorithm 2 of the
  * paper needs.
  * The roots hang below a virtual root, dfn 0, so a seed set needs no §V
  * seed reduction: in every live-edge world each non-seed vertex has the
  * same dominator subtree as in that world blocked and then reduced to one
  * unified seed. All internal state lives in DFS-number ("dfn") space, in
  * a [[Workspace]] that a thread's [[repro.Scratch]] keeps across its
  * samples and jobs, so a sample costs time and allocation in proportion
  * to what it reaches, not to n.
  */
object DominatorTree {

  /** The reusable state of [[walk]] and [[compute]] for graphs of `n`
    * vertices. Only `dfn` has n entries; every other array grows with the
    * largest reach so far. After a walk, `dfn` numbers the reached vertices
    * until [[Workspace.reset]], entries `0 until count` of `vertexOf` map
    * dfns back, and entries `0 until edges` of `edgeSrc`/`edgeDst` are the
    * live edges met, as dfn pairs. After [[compute]], `idom` and `size`
    * describe its tree too, and `dfn` is back to −1 everywhere.
    */
  final class Workspace(val n: Int) {
    private[repro] val dfn: Array[Int] = Array.fill(n)(-1)
    /** dfns in use by the last sample, the virtual root included. */
    private[repro] var count = 0
    private[repro] var edges = 0
    /** Original vertex of each dfn; −1 for the virtual root. */
    private[repro] var vertexOf = new Array[Int](16)
    private[repro] var edgeSrc = new Array[Int](16)
    private[repro] var edgeDst = new Array[Int](16)
    /** Immediate dominator in dfn space; `idom(0) == 0`. */
    private[repro] var idom = new Array[Int](16)
    /** Dominator-subtree size of each dfn (Theorem 6: σ→u). */
    private[repro] var size = new Array[Int](16)

    private[domtree] var parent = new Array[Int](16)
    private[domtree] var stackV = new Array[Int](16)
    private[domtree] var stackE = new Array[Int](16)
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

    /** Set `dfn` back to −1, touching only the vertices the last walk reached. */
    def reset(): Unit = {
      var i = 1
      while (i < count) { dfn(vertexOf(i)) = -1; i += 1 }
    }
  }

  private def grown(a: Array[Int]): Array[Int] = java.util.Arrays.copyOf(a, 2 * a.length)

  /** The one walk of a sampled world: an iterative DFS, into `ws`, from a
    * virtual root whose children are the unblocked `roots`, over the live
    * edges of the IC world keyed by `sampleSeed` (`Rng.cutKeep`, the
    * decision of `GraphSampler.liveEdge`). It never enters a `blocked`
    * vertex (null: none), draws an edge's coin at most once (only for the
    * out-edges of reached vertices into unblocked ones) and records every
    * live edge it meets. Returns how many vertices it reached, roots
    * included (a blocked root counts as unreached, a repeated one once). The
    * caller resets `ws` when done with its `dfn`.
    */
  def walk(g: ProbGraph, roots: Array[Int], blocked: Array[Boolean], sampleSeed: Long, ws: Workspace): Int =
    search(g, roots, blocked, null, sampleSeed, ws)

  /** [[walk]] over the edges that satisfy `keepEdge`, asked at most once per
    * edge, instead of a sampled world's.
    */
  def walk(g: ProbGraph, roots: Array[Int], blocked: Array[Boolean], keepEdge: Int => Boolean, ws: Workspace): Int =
    search(g, roots, blocked, keepEdge, 0L, ws)

  /** The loop of both [[walk]]s: an edge is live by `keepEdge`, or by the
    * coin of world `sampleSeed` when `keepEdge` is null.
    */
  private def search(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      keepEdge: Int => Boolean,
      sampleSeed: Long,
      ws: Workspace): Int = {
    require(ws.n == g.n, s"workspace for ${ws.n} vertices used on a graph of ${g.n}")
    val offsets = g.offsets
    val targets = g.targets
    val cuts = g.cuts
    val probs = g.probs
    val dfn = ws.dfn
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
            if ((blocked == null || !blocked(v)) &&
                (if (keepEdge == null) Rng.cutKeep(sampleSeed, e, cuts, probs) else keepEdge(e))) {
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
    ws.count = cnt; ws.edges = ne
    cnt - 1
  }

  /** Counting sort of the walk's edge pairs `(keys(k), vals(k))`, `k < ne`,
    * by key into rows over `0 until cnt`: row d is `out(off(d) until
    * off(d + 1))`. `off` needs `cnt + 1` entries and `out` `ne`.
    */
  private[repro] def rows(keys: Array[Int], vals: Array[Int], ne: Int, cnt: Int, off: Array[Int], out: Array[Int]): Unit = {
    java.util.Arrays.fill(off, 0, cnt + 1, 0)
    var k = 0
    while (k < ne) { off(keys(k)) += 1; k += 1 }
    var i = 1
    while (i < cnt) { off(i) += off(i - 1); i += 1 }
    k = 0
    while (k < ne) {
      val d = keys(k)
      off(d) -= 1; out(off(d)) = vals(k)
      k += 1
    }
    off(cnt) = ne
  }

  /** The one dominator-tree kernel. Computes, into `ws`, the dominator tree
    * of the part of the world `sampleSeed` that [[walk]] reaches from
    * `roots`, never entering a `blocked` vertex.
    */
  def compute(g: ProbGraph, roots: Array[Int], blocked: Array[Boolean], sampleSeed: Long, ws: Workspace): Unit = {
    walk(g, roots, blocked, sampleSeed, ws)
    tree(ws)
  }

  /** [[compute]] on the edges that satisfy `keepEdge`. */
  def compute(g: ProbGraph, roots: Array[Int], blocked: Array[Boolean], keepEdge: Int => Boolean, ws: Workspace): Unit = {
    walk(g, roots, blocked, keepEdge, ws)
    tree(ws)
  }

  /** The dominator tree of the walk in `ws`, and `ws` reset. */
  private def tree(ws: Workspace): Unit = {
    val cnt = ws.count
    val parent = ws.parent
    ws.fit(cnt, ws.edges)
    val predOff = ws.predOff
    val predSrc = ws.predSrc
    rows(ws.edgeDst, ws.edgeSrc, ws.edges, cnt, predOff, predSrc) // predecessor lists in dfn space

    // --- Steps 2-4: Lengauer-Tarjan with path compression -------------------
    val semi = ws.semi
    val label = ws.label
    val ancestor = ws.ancestor
    val dom = ws.idom
    val bucketHead = ws.bucketHead
    val bucketNext = ws.bucketNext
    val chain = ws.chain
    var i = 0
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

    ws.reset()
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
}

package repro.spread

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.domtree.DominatorTree
import repro.graph.ProbGraph
import repro.util.Rng

/** Monte-Carlo Simulation (MCS) estimation of the expected spread — the
  * spread oracle of the paper's baselines [7]: each simulation keeps every
  * edge with its propagation probability and counts the vertices reachable
  * from the seeds (Lemma 1). All simulations are keyed by pure per-sample
  * seeds, so evaluations of different blocker sets under the same
  * `masterSeed` use common random numbers (identical sampled worlds).
  */
object MonteCarloSpread {

  /** Total reach count of `roots` over the sampled worlds `from until until`
    * keyed by `masterSeed`, with `blocked` vertices removed (null: none): one
    * [[DominatorTree.walk]] per world on one workspace.
    */
  def reachSum(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      masterSeed: Long,
      from: Long,
      until: Long): Long = {
    val ws = new DominatorTree.Workspace(g.n)
    var sum = 0L
    var i = from
    while (i < until) {
      sum += DominatorTree.walk(g, roots, blocked, Rng.sampleSeed(masterSeed, i), ws)
      ws.reset()
      i += 1
    }
    sum
  }

  /** The sweep of BG and Exact: for each blocker set `i` in `from until
    * until` — set `i` is `sets(i * stride until (i + 1) * stride)` — the
    * total reach count of `roots` over the `r` worlds keyed by `masterSeed`
    * with `blocked` (null: none) and the set's members blocked, in set
    * order, on the reusable workspace `ws`; and first, the base: the total
    * with `blocked` alone, what [[reachSum]] counts over those worlds.
    *
    * Worlds run one at a time. [[DominatorTree.walk]] from the roots with
    * `blocked` alone finds a world's base reach R, drawing each edge's coin
    * once, and records its live edges, which a counting sort by source
    * turns into a compact CSR over R's dfns. Blocking more vertices only
    * shrinks a reach, so every set's reach lies in R, and each set × world
    * is then its own walk on that CSR, with the set's members pre-marked
    * through `dfn` in an epoch-stamped `vis` and never entered, with no
    * per-walk fill and no coin test. The reached roots are found once per
    * world and marked for good, together with their distinct live
    * successors that are not roots (the frontier); a set with no root
    * member counts every reached root and starts its walk at the frontier.
    * A set with a root member counts and starts at its other reached roots
    * instead, and its roots' marks are restored after it. Either way it
    * counts exactly what a walk of the whole world with the set added to
    * `blocked` counts. A member outside R (blocked, unreached or off the
    * support) changes nothing.
    */
  def sweepSums(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      sets: Array[Int],
      stride: Int,
      from: Int,
      until: Int,
      r: Int,
      masterSeed: Long,
      ws: DominatorTree.Workspace): (Long, Array[Long]) = {
    val sums = new Array[Long](until - from)
    val rootMember = new Array[Boolean](until - from)
    var j = from * stride
    while (j < until * stride) {
      var ri = 0
      while (ri < roots.length) { if (sets(j) == roots(ri)) rootMember(j / stride - from) = true; ri += 1 }
      j += 1
    }
    val dfn = ws.dfn
    // Row u of the world's CSR is adj(off(u) until off(u + 1)), u a dfn.
    var off = new Array[Int](17)
    var adj = new Array[Int](16)
    var vis = new Array[Int](16)
    var stack = new Array[Int](16)
    var front = new Array[Int](16)
    val rootDfn = new Array[Int](roots.length)
    var base = 0L
    var world = 0
    while (world < r) {
      base += DominatorTree.walk(g, roots, blocked, Rng.sampleSeed(masterSeed, world), ws)
      val size = ws.count
      if (vis.length < size) {
        val c = math.max(size, 2 * vis.length)
        off = new Array[Int](c + 1); vis = new Array[Int](c); stack = new Array[Int](c); front = new Array[Int](c)
      } else java.util.Arrays.fill(vis, 0, size, 0)
      if (adj.length < ws.edges) adj = new Array[Int](math.max(ws.edges, 2 * adj.length))
      DominatorTree.rows(ws.edgeSrc, ws.edgeDst, ws.edges, size, off, adj)
      // The reached roots, each once and marked for good, and the frontier:
      // their live successors that are not roots, each once.
      var nr = 0
      var ri = 0
      while (ri < roots.length) {
        val d = dfn(roots(ri))
        if (d > 0 && vis(d) != Root) { vis(d) = Root; rootDfn(nr) = d; nr += 1 }
        ri += 1
      }
      var nf = 0
      ri = 0
      while (ri < nr) {
        val u = rootDfn(ri)
        var e = off(u)
        while (e < off(u + 1)) {
          val v = adj(e)
          if (vis(v) == 0) { vis(v) = -1; front(nf) = v; nf += 1 }
          e += 1
        }
        ri += 1
      }
      ri = 0
      while (ri < nf) { vis(front(ri)) = 0; ri += 1 }
      var s = from
      while (s < until) {
        // Epochs ascend within a world, so vis(v) < epoch means unvisited.
        val epoch = s - from + 1
        j = s * stride
        while (j < (s + 1) * stride) {
          val u = dfn(sets(j))
          if (u >= 0) vis(u) = epoch
          j += 1
        }
        val count =
          if (!rootMember(s - from)) nr + walkFrom(front, nf, off, adj, vis, stack, epoch)
          else {
            // Start at the unblocked roots, as a walk from the virtual root would.
            ri = 0
            while (ri < nr) { if (vis(rootDfn(ri)) == Root) vis(rootDfn(ri)) = 0; ri += 1 }
            val c = walkFrom(rootDfn, nr, off, adj, vis, stack, epoch)
            ri = 0
            while (ri < nr) { vis(rootDfn(ri)) = Root; ri += 1 }
            c
          }
        sums(s - from) += count
        s += 1
      }
      ws.reset()
      world += 1
    }
    (base, sums)
  }

  /** How many vertices a depth-first walk on the CSR `off`/`adj` marks with
    * `epoch` in `vis`, entering only vertices marked below it, from the
    * first `k` vertices of `starts`.
    */
  private def walkFrom(starts: Array[Int], k: Int, off: Array[Int], adj: Array[Int], vis: Array[Int], stack: Array[Int],
      epoch: Int): Int = {
    var count = 0
    var sp = 0
    var f = 0
    while (f < k) {
      val v = starts(f)
      if (vis(v) < epoch) { vis(v) = epoch; stack(sp) = v; sp += 1; count += 1 }
      f += 1
    }
    while (sp > 0) {
      sp -= 1
      val u = stack(sp)
      var e = off(u)
      while (e < off(u + 1)) {
        val v = adj(e)
        if (vis(v) < epoch) { vis(v) = epoch; stack(sp) = v; sp += 1; count += 1 }
        e += 1
      }
    }
    count
  }

  /** The `vis` mark of a reached root in [[sweepSums]]: above every epoch. */
  private final val Root = Int.MaxValue

  /** Estimate over `r` simulations with `blocked` vertices removed (null:
    * none), on the driver (`cluster = None`) or as one Spark job that sums
    * the reach counts of each slice of worlds.
    */
  def spread(
      cluster: Option[SparkSession],
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean]): Double = {
    require(r >= 1, "r must be positive")
    val total = Execution.run(cluster, g, (roots, blocked), r) { case (g, (roots, blocked), from, until) =>
      reachSum(g, roots, blocked, masterSeed, from, until)
    }(_ + _)
    total.toDouble / r
  }

  /** Driver-side estimate over `r` simulations. */
  def spreadLocal(
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean] = null): Double =
    spread(None, g, roots, r, masterSeed, blocked)

  /** Estimate over `r` simulations fanned out over Spark. */
  def spread(
      spark: SparkSession,
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean] = null): Double =
    spread(Some(spark), g, roots, r, masterSeed, blocked)

  /** Spread after blocking `blockers`, on the driver or over Spark as
    * [[repro.Execution]] decides for `r` simulations of `g`.
    */
  def spreadWithBlockers(
      spark: SparkSession,
      g: ProbGraph,
      roots: Array[Int],
      blockers: Iterable[Int],
      r: Int,
      masterSeed: Long): Double = {
    val mask = new Array[Boolean](g.n)
    blockers.foreach(mask(_) = true)
    spread(Execution.cluster(spark, g, r), g, roots, r, masterSeed, mask)
  }
}

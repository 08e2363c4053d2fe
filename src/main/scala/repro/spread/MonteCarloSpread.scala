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

  /** The one Monte-Carlo kernel, of MCS, BG and Exact: over the sampled
    * worlds `from until until` keyed by `masterSeed`, on the reusable
    * workspace `ws`, the total reach count of `roots` with `blocked` (null:
    * none) removed, the base; and for each of the first `k` blocker sets,
    * in set order, that total with the set's members blocked too. Set `i`
    * is `sets(i * stride until (i + 1) * stride)`, and no set may hold a
    * root.
    *
    * Worlds run one at a time. [[DominatorTree.walk]] from the roots with
    * `blocked` alone finds a world's base reach R, drawing each edge's coin
    * once; with `k = 0` that walk is all a world costs. Otherwise the walk
    * records R's live edges, which a counting sort by source turns into a
    * compact CSR over R's dfns. Blocking more vertices only shrinks a
    * reach, so every set's reach lies in R, and each set × world is then
    * its own walk on that CSR, with the set's members pre-marked through
    * `dfn` in an epoch-stamped `vis` and never entered, with no per-walk
    * fill and no coin test. The reached roots are found once per world and
    * marked for good, together with their distinct live successors that
    * are not roots (the frontier); every set counts every reached root and
    * starts its walk at the frontier, so it counts exactly what a walk of
    * the whole world with the set added to `blocked` counts. A member
    * outside R (blocked, unreached or off the support) changes nothing.
    */
  def sweepSums(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      sets: Array[Int],
      stride: Int,
      k: Int,
      from: Long,
      until: Long,
      masterSeed: Long,
      ws: DominatorTree.Workspace): (Long, Array[Long]) = {
    var j = 0
    while (j < k * stride) {
      var ri = 0
      while (ri < roots.length) { require(sets(j) != roots(ri), "a blocker set holds a root"); ri += 1 }
      j += 1
    }
    val sums = new Array[Long](k)
    val dfn = ws.dfn
    // Row u of the world's CSR is adj(off(u) until off(u + 1)), u a dfn.
    var off, adj, vis, stack, front = Array.emptyIntArray
    var base = 0L
    var world = from
    while (world < until) {
      base += DominatorTree.walk(g, roots, blocked, Rng.sampleSeed(masterSeed, world), ws)
      if (k > 0) {
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
          if (d > 0 && vis(d) != Root) { vis(d) = Root; nr += 1 }
          ri += 1
        }
        var nf = 0
        ri = 0
        while (ri < roots.length) {
          val u = dfn(roots(ri))
          if (u > 0) {
            var e = off(u)
            while (e < off(u + 1)) {
              val v = adj(e)
              if (vis(v) == 0) { vis(v) = -1; front(nf) = v; nf += 1 }
              e += 1
            }
          }
          ri += 1
        }
        ri = 0
        while (ri < nf) { vis(front(ri)) = 0; ri += 1 }
        var s = 0
        while (s < k) {
          // Epochs ascend within a world, so vis(v) < epoch means unvisited.
          val epoch = s + 1
          j = s * stride
          while (j < (s + 1) * stride) {
            val u = dfn(sets(j))
            if (u >= 0) vis(u) = epoch
            j += 1
          }
          sums(s) += nr + walkFrom(front, nf, off, adj, vis, stack, epoch)
          s += 1
        }
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

  /** [[sweepSums]] of every set in `sets` over the worlds `0 until r`, on
    * the driver (`cluster = None`) or as one Spark job over slices of the
    * worlds; each slice sweeps on a workspace of its own, and the slices'
    * bases and sums add up.
    */
  def sums(
      cluster: Option[SparkSession],
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      sets: Array[Int],
      stride: Int,
      r: Int,
      masterSeed: Long): (Long, Array[Long]) = {
    require(r >= 1, "r must be positive")
    Execution.run(cluster, g, (roots, blocked, sets), r) { case (g, (roots, blocked, sets), from, until) =>
      sweepSums(g, roots, blocked, sets, stride, sets.length / stride, from, until, masterSeed,
        new DominatorTree.Workspace(g.n))
    } { case ((baseA, a), (baseB, b)) =>
      var i = 0
      while (i < a.length) { a(i) += b(i); i += 1 }
      (baseA + baseB, a)
    }
  }

  /** Estimate over `r` simulations with `blocked` vertices removed (null:
    * none), on the driver (`cluster = None`) or as one Spark job: the base
    * of [[sums]] with no blocker set, over `r`.
    */
  def spread(
      cluster: Option[SparkSession],
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean]): Double =
    sums(cluster, g, roots, blocked, Array.emptyIntArray, 1, r, masterSeed)._1.toDouble / r

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

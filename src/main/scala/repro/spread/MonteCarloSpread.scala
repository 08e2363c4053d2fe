package repro.spread

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.graph.ProbGraph
import repro.sampling.GraphSampler
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
    * keyed by `masterSeed`, with `blocked` vertices removed (null: none), on
    * one `vis` array.
    */
  def reachSum(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      masterSeed: Long,
      from: Long,
      until: Long): Long = {
    val vis = new Array[Boolean](g.n)
    var sum = 0L
    var i = from
    while (i < until) {
      sum += reachWorld(g, roots, Rng.sampleSeed(masterSeed, i), blocked, vis)
      i += 1
    }
    sum
  }

  /** The sweep of BG and Exact: for each blocker set `i` in `from until
    * until` — set `i` is `sets(i * stride until (i + 1) * stride)` — the
    * total reach count of `roots` over the `r` worlds keyed by `masterSeed`
    * with `blocked` (null: none) and the set's members blocked, in set
    * order.
    *
    * Worlds run one at a time. A world's first walk, from the roots with
    * `blocked` alone, finds its base reach R: it numbers R's vertices
    * 0 until |R| (in `local`, an n-sized array reset only on R) and records
    * the world's live edges among them as a compact CSR, drawing each
    * edge's coin there, once. Blocking more vertices only shrinks a reach,
    * so every set's reach lies in R, and each set × world is then its own
    * walk on that CSR: the set's members are pre-marked in an epoch-stamped
    * `vis` and never entered, with no per-walk fill and no coin test. It
    * counts exactly what a walk of the whole world with the set added to
    * `blocked` counts. A member outside R (blocked, unreached or off the
    * support) changes nothing; a member that is a root leaves it unreached.
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
      masterSeed: Long): Array[Long] = {
    val sums = new Array[Long](until - from)
    val offsets = g.offsets
    val targets = g.targets
    val probs = g.probs
    val local = new Array[Int](g.n)
    java.util.Arrays.fill(local, -1)
    // R's vertices by local id, which the base walk visits in that order
    // (breadth-first), so its live edges fill the CSR row by row.
    var verts = new Array[Int](16)
    var off = new Array[Int](16) // row u of the CSR is edges(off(u) until off(u + 1))
    var edges = new Array[Int](16)
    var vis = new Array[Int](16)
    var stack = new Array[Int](16)
    val rootIds = new Array[Int](roots.length)
    var w = 0
    while (w < r) {
      val sampleSeed = Rng.sampleSeed(masterSeed, w)
      var size = 0
      var nRoots = 0
      var i = 0
      while (i < roots.length) {
        val v = roots(i)
        if (local(v) < 0 && (blocked == null || !blocked(v))) {
          if (size + 1 == verts.length) { verts = grow(verts); off = grow(off) }
          local(v) = size; verts(size) = v; rootIds(nRoots) = size
          size += 1; nRoots += 1
        }
        i += 1
      }
      var nEdges = 0
      var head = 0
      while (head < size) {
        off(head) = nEdges
        var e = offsets(verts(head))
        val end = offsets(verts(head) + 1)
        while (e < end) {
          val v = targets(e)
          if ((blocked == null || !blocked(v)) && Rng.edgeKeep(sampleSeed, e, probs(e))) {
            if (local(v) < 0) {
              if (size + 1 == verts.length) { verts = grow(verts); off = grow(off) }
              local(v) = size; verts(size) = v; size += 1
            }
            if (nEdges == edges.length) edges = grow(edges)
            edges(nEdges) = local(v); nEdges += 1
          }
          e += 1
        }
        head += 1
      }
      off(size) = nEdges
      if (vis.length < size) { vis = new Array[Int](verts.length); stack = new Array[Int](verts.length) }
      else java.util.Arrays.fill(vis, 0, size, 0)
      var s = from
      while (s < until) {
        val epoch = s - from + 1
        var j = s * stride
        while (j < (s + 1) * stride) {
          val u = local(sets(j))
          if (u >= 0) vis(u) = epoch
          j += 1
        }
        var sp = 0
        i = 0
        while (i < nRoots) {
          val u = rootIds(i)
          if (vis(u) != epoch) { vis(u) = epoch; stack(sp) = u; sp += 1 }
          i += 1
        }
        var count = sp
        while (sp > 0) {
          sp -= 1
          val u = stack(sp)
          var e = off(u)
          while (e < off(u + 1)) {
            val v = edges(e)
            if (vis(v) != epoch) { vis(v) = epoch; stack(sp) = v; sp += 1; count += 1 }
            e += 1
          }
        }
        sums(s - from) += count
        s += 1
      }
      i = 0
      while (i < size) { local(verts(i)) = -1; i += 1 }
      w += 1
    }
    sums
  }

  private def grow(a: Array[Int]): Array[Int] = java.util.Arrays.copyOf(a, 2 * a.length)

  /** Reach count of `roots` in the world keyed by `sampleSeed`, reusing
    * `vis` (cleared first).
    */
  private def reachWorld(
      g: ProbGraph,
      roots: Array[Int],
      sampleSeed: Long,
      blocked: Array[Boolean],
      vis: Array[Boolean]): Int = {
    java.util.Arrays.fill(vis, false)
    GraphSampler.reach(g, roots, blocked, vis)(GraphSampler.liveEdge(g, sampleSeed))
  }

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

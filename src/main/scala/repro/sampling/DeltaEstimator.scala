package repro.sampling

import org.apache.spark.sql.SparkSession
import repro.Execution
import repro.domtree.DominatorTree
import repro.graph.ProbGraph
import repro.util.Rng

/** Algorithm 2 of the paper — DecreaseESComputation.
  *
  * For every vertex `u`, estimate the decrease of expected spread caused by
  * blocking `u`, as the average over θ sampled worlds of the size of the
  * subtree rooted at `u` in the dominator tree of the sampled graph
  * (Theorems 4 and 6). One dominator tree per sample gives the estimate for
  * *all* candidate blockers at once — this is the paper's key speedup over
  * per-candidate Monte-Carlo simulation.
  *
  * The seeds are the children of the dominator tree's virtual root and the
  * blocked vertices a mask, so a round runs on the original graph: its
  * samples cost what they reach. A root's Δ is 0: it is not a candidate.
  *
  * The θ samples are one [[repro.Execution.run]] job: each slice of worlds
  * runs the sample→dominator-tree→subtree-size kernel with one
  * [[DominatorTree.Workspace]] into one Δ-sum array. A slice that holds
  * every world (the driver path, or a job whose other slices are empty)
  * returns that array, which becomes Δ in place. Any other slice returns
  * only its touched vertices and their sums, which the driver adds into one
  * array (a world reaches a small part of a large graph, so these partials
  * are far smaller than n). The sums are integer-valued, so the order of
  * the additions does not change them. Whether the job runs on the driver
  * or over Spark is decided by [[repro.Execution]].
  */
object DeltaEstimator {

  /** Add one sampled world's subtree sizes into `acc` (length ≥ g.n), roots
    * included.
    */
  def accumulateSample(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      sampleSeed: Long,
      acc: Array[Double],
      ws: DominatorTree.Workspace): Unit = {
    DominatorTree.compute(g, roots, blocked, sampleSeed, ws)
    var i = 1 // dfn 0 is the virtual root
    while (i < ws.count) {
      acc(ws.vertexOf(i)) += ws.size(i)
      i += 1
    }
  }

  /** The vertices with a nonzero sum in `acc`, ascending, and their sums. */
  private def touched(acc: Array[Double]): (Array[Int], Array[Double]) = {
    var k = 0
    var v = 0
    while (v < acc.length) { if (acc(v) != 0.0) k += 1; v += 1 }
    val vs = new Array[Int](k)
    val xs = new Array[Double](k)
    k = 0
    v = 0
    while (v < acc.length) {
      if (acc(v) != 0.0) { vs(k) = v; xs(k) = acc(v); k += 1 }
      v += 1
    }
    (vs, xs)
  }

  /** Δ from the θ-sample sums in `acc`, in place. */
  private def finish(acc: Array[Double], roots: Array[Int], theta: Int): Array[Double] = {
    var v = 0
    while (v < acc.length) { acc(v) /= theta; v += 1 }
    roots.foreach(acc(_) = 0.0)
    acc
  }

  /** Δ of every vertex over the θ worlds keyed by `masterSeed`, with the
    * seeds `roots` and `blocked` vertices (null: none) masked out, on the
    * driver (`cluster = None`) or as one Spark job, one workspace and one
    * Δ-sum array per slice of worlds. A slice's partial is `(null, sums)`
    * when it holds all θ worlds, else its nonzero sums `(vertices, sums)`.
    */
  def estimate(
      cluster: Option[SparkSession],
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      theta: Int,
      masterSeed: Long): Array[Double] = {
    require(theta >= 1, "theta must be positive")
    val parts = Execution.run(cluster, g, (roots, blocked), theta) { case (g, (roots, blocked), from, until) =>
      val acc = new Array[Double](g.n)
      val ws = new DominatorTree.Workspace(g.n)
      var i = from
      while (i < until) {
        accumulateSample(g, roots, blocked, Rng.sampleSeed(masterSeed, i), acc, ws)
        i += 1
      }
      List(if (from == 0 && until == theta) (null, acc) else touched(acc))
    }(_ ::: _)
    val sums = parts match {
      case List((null, all)) => all
      case _ =>
        val sums = new Array[Double](g.n)
        for ((vs, xs) <- parts) {
          var k = 0
          while (k < vs.length) { sums(vs(k)) += xs(k); k += 1 }
        }
        sums
    }
    finish(sums, roots, theta)
  }

  /** Driver-side estimate from a single root. */
  def estimateLocal(
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long): Array[Double] =
    estimate(None, g, Array(root), null, theta, masterSeed)

  /** Estimate from a single root, fanned out over Spark. */
  def estimate(
      spark: SparkSession,
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long): Array[Double] =
    estimate(Some(spark), g, Array(root), null, theta, masterSeed)
}

package repro.sampling

import org.apache.spark.sql.SparkSession
import repro.{Execution, Scratch}
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
  * runs the sample→dominator-tree→subtree-size kernel on its thread's
  * [[repro.Scratch]], adding into the scratch's Δ-sum array and listing
  * each vertex the first time it is touched. The slice returns only its
  * touched vertices and their sums, and clears them; the driver adds the
  * partials into one array (a world reaches a small part of a large graph,
  * so a partial is far smaller than n). The sums are integer-valued, so the
  * order of the additions does not change them. Whether the job runs on
  * the driver or over Spark is decided by [[repro.Execution]].
  */
object DeltaEstimator {

  /** Add one sampled world's subtree sizes into `s.acc`, roots included,
    * listing in `s.touched`, from position `k` on, every vertex whose sum
    * was 0; returns the new length of the list.
    */
  def accumulateSample(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      sampleSeed: Long,
      s: Scratch,
      k: Int): Int = {
    val ws = s.ws
    val acc = s.acc
    DominatorTree.compute(g, roots, blocked, sampleSeed, ws)
    var touched = s.touched
    var listed = k
    var i = 1 // dfn 0 is the virtual root
    while (i < ws.count) {
      val v = ws.vertexOf(i)
      if (acc(v) == 0.0) { // sizes are ≥ 1, so a listed vertex's sum is never 0
        if (listed == touched.length) touched = java.util.Arrays.copyOf(touched, 2 * touched.length)
        touched(listed) = v; listed += 1
      }
      acc(v) += ws.size(i)
      i += 1
    }
    s.touched = touched
    listed
  }

  /** Δ of every vertex over the θ worlds keyed by `masterSeed`, with the
    * seeds `roots` and the `blocked` vertices (ascending ids) masked out,
    * on the driver (`cluster = None`) or as one Spark job. A slice's
    * partial is its touched vertices and their sums.
    */
  def estimate(
      cluster: Option[SparkSession],
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Int],
      theta: Int,
      masterSeed: Long): Array[Double] = {
    require(theta >= 1, "theta must be positive")
    Scratch.checkBlocked(g.n, blocked)
    val parts = Execution.run(cluster, g, (roots, blocked), theta) { case (g, (roots, blocked), from, until, s) =>
      val k = s.blocking(blocked) { mask =>
        var k = 0
        var i = from
        while (i < until) {
          k = accumulateSample(g, roots, mask, Rng.sampleSeed(masterSeed, i), s, k)
          i += 1
        }
        k
      }
      val vs = java.util.Arrays.copyOf(s.touched, k)
      val xs = new Array[Double](k)
      var j = 0
      while (j < k) { xs(j) = s.acc(vs(j)); s.acc(vs(j)) = 0.0; j += 1 }
      List((vs, xs))
    }(_ ::: _)
    val delta = new Array[Double](g.n)
    for ((vs, xs) <- parts) {
      var j = 0
      while (j < vs.length) { delta(vs(j)) += xs(j); j += 1 }
    }
    var v = 0
    while (v < delta.length) { delta(v) /= theta; v += 1 }
    roots.foreach(delta(_) = 0.0)
    delta
  }

  /** Driver-side estimate from a single root. */
  def estimateLocal(
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long): Array[Double] =
    estimate(None, g, Array(root), Array.emptyIntArray, theta, masterSeed)

  /** Estimate from a single root, fanned out over Spark. */
  def estimate(
      spark: SparkSession,
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long): Array[Double] =
    estimate(Some(spark), g, Array(root), Array.emptyIntArray, theta, masterSeed)
}

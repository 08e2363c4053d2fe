package repro.imin

import repro.graph.ProbGraph
import scala.util.Random

/** The two simple baselines of the experiments (§VI-A): Rand (RA) and
  * OutDegree (OD).
  */
object Heuristics {

  /** RA: `b` uniformly random distinct non-seed vertices, deterministic in
    * `seed`.
    */
  def rand(g: ProbGraph, seeds: Set[Int], b: Int, seed: Long): Seq[Int] = {
    val rnd = new Random(seed)
    val pool = (0 until g.n).filterNot(seeds.contains)
    rnd.shuffle(pool).take(b)
  }

  /** OD: the `b` non-seed vertices with the highest out-degree (ties broken
    * by smallest id).
    */
  def outDegree(g: ProbGraph, seeds: Set[Int], b: Int): Seq[Int] =
    (0 until g.n)
      .filterNot(seeds.contains)
      .sortBy(v => (-g.outDegree(v), v))
      .take(b)
}

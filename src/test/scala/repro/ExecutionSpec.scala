package repro

import repro.exp.Datasets
import repro.graph.{ProbGraph, PropModels, SocialGraphGen}

/** AG/GR price a round on the graph they run on, the input graph itself. */
class ExecutionSpec extends SparkSpec {

  test("an AG round on the Wiki-Vote substitute (theta = 100) runs on the driver") {
    val spec = Datasets.byName("Wiki-Vote")
    val g = Datasets.withModel(spec.graph, "TR", spec.seed)
    assert(Execution.cluster(spark, g, 100).isEmpty)
  }

  test("an AG round on a sparse 100k-vertex graph (theta = 100) fans out over Spark") {
    val g = PropModels.trivalency(SocialGraphGen.powerLaw(100000, 150000, directed = false, 21L), 21L)
    assert(Execution.cluster(spark, g, 100).contains(spark))
  }

  test("the decision is a threshold on traversals x (n + m)") {
    val g = ProbGraph.fromEdges(4, Seq((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5))) // n + m = 8
    val atThreshold = Execution.SparkMinWork / 8
    assert(Execution.cluster(spark, g, atThreshold).contains(spark))
    assert(Execution.cluster(spark, g, atThreshold - 1).isEmpty)
    assert(Execution.cluster(spark, g, 1).isEmpty)
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphSpace
import repro.lake.GraphLake

/** The surrogate calls a state unusable below its space's own floor
  * (`StateSpace.minRows`), the one its exact evaluation applies: 50 edges
  * in the graph space, 20 rows in the synthetic space.
  */
class SurrogateFloorSpec extends AnyFunSuite {

  /** A valuator past its one-state bootstrap (s_U), whose next valuation is estimated. */
  private def estimating(space: StateSpace): SurrogateValuator = {
    val v = new SurrogateValuator(space, bootstrap = 1)
    assert(v.valuate(space.full).isDefined)
    v
  }

  test("graph: a state with 40 to 49 edges is unusable to the surrogate, as to exact evaluation") {
    val base = GraphLake.generate(0.01)
    // cluster 0 trimmed to 45 edges
    val lake = base.copy(edges = base.edges.filter(_._3 == 0).take(45) ++ base.edges.filter(_._3 != 0))
    val space = new GraphSpace(lake, epochs = 1)
    val l = space.layout
    val only0 = (1 until lake.nEdgeClusters).foldLeft(space.full)((s, c) => s.clear(l.clusterIdx("edge", c)))
    assert(space.rowCountEstimate(only0) == 45)
    assert(estimating(space).valuate(only0).isEmpty)
    assert(space.evaluate(only0).isEmpty)
  }

  test("synthetic: a state with 20 to 39 rows gets an estimate, as exact evaluation gives a vector") {
    val space = new SyntheticSpace()
    val l = space.layout
    Seq(1, 2).foreach { keep =>
      val s = Seq(0, 1, 2).filter(_ != keep).foldLeft(space.full)((t, c) => t.clear(l.clusterIdx("seg", c)))
      assert(Seq(20L, 30L).contains(space.rowCountEstimate(s)))
      assert(estimating(space).valuate(s).isDefined, s"$s")
      assert(space.evaluate(s).isDefined)
    }
  }
}

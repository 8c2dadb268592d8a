package repro.core

import repro.{SparkSpec, TableLakes}
import repro.graph.GraphSpace
import repro.lake.GraphLake

/** Golden BackSt states (Algorithm 2's backward start s_b) of every Table
  * lake's [[TabularSpace]] and of the graph lake's `GraphSpace`, at SF 0.01.
  * The graph lake's largest edge cluster is unique, so no tie-break between
  * equal clusters can move its s_b.
  */
class BackStartSpec extends SparkSpec {

  // Recorded at SF 0.01, not derived: any change is a change of behaviour.
  private val expected: Map[String, String] = Map(
    "movie" -> "L[11110000000110100000100]",
    "house" -> "L[111100000000000000000000111111110000]",
    "avocado" -> "L[111100000000000001000010]",
    "mental" -> "L[1111000000000000000000010001000]",
    "graph" -> "L[100000010000000]")

  Seq("movie", "house", "avocado", "mental").foreach { name =>
    test(s"$name: BackSt reproduces its golden") {
      val f = TableLakes(name)
      assert(new TabularSpace(f.uni, f.task).backStart.toString == expected(name))
    }
  }

  test("graph: BackSt reproduces its golden") {
    assert(new GraphSpace(GraphLake.generate(0.01)).backStart.toString == expected("graph"))
  }

  test("graph: the largest edge cluster is unique at SF 0.01 and 0.1") {
    Seq(0.01, 0.1).foreach { sf =>
      val sizes = GraphLake.generate(sf).edges.groupBy(_._3).values.map(_.size).toSeq.sorted.reverse
      assert(sizes.head > sizes(1), s"SF $sf: cluster sizes $sizes")
    }
  }
}

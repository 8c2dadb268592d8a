package repro.core

import repro.{SparkSpec, TableLakes}

class TabularSpaceSpec extends SparkSpec {

  private val movie = TableLakes("movie")
  import movie.{lake, task, uni}
  private lazy val space = new TabularSpace(uni, task)

  test("full state is admissible") {
    assert(space.admissible(space.full))
  }

  test("a state without attributes is inadmissible") {
    var s = space.full
    space.layout.attrs.foreach(a => s = s.clear(space.layout.attrIdx(a)))
    assert(!space.admissible(s))
  }

  test("a state with an empty segment is inadmissible") {
    val seg = space.layout.segAttrs.head
    var s = space.full
    (0 until uni.clusterings(seg).k).foreach(c => s = s.clear(space.layout.clusterIdx(seg, c)))
    assert(!space.admissible(s))
  }

  test("neighborsReduct flips exactly one bit down") {
    val kids = space.neighborsReduct(space.full)
    assert(kids.nonEmpty)
    kids.foreach(k => assert(k.bits.size == space.full.bits.size - 1))
  }

  test("neighborsAugment flips exactly one bit up") {
    val sb = space.backStart
    val kids = space.neighborsAugment(sb)
    assert(kids.nonEmpty)
    kids.foreach(k => assert(k.bits.size == sb.bits.size + 1))
  }

  test("neighborsReduct of full covers all admissible single flips") {
    val kids = space.neighborsReduct(space.full).toSet
    // flipping any single attr bit (with >1 attrs) is admissible
    assert(kids.size >= space.layout.attrs.size)
  }

  test("backStart keeps only base attributes") {
    val baseCols = lake.base.df.columns.toSet
    val sb = space.backStart
    assert(space.layout.attrsOf(sb).forall(baseCols.contains))
  }

  test("backStart evaluates successfully (class coverage)") {
    assert(space.evaluate(space.backStart).isDefined)
  }

  test("rowCountEstimate equals materialized count on sample states") {
    Seq("movie", "house", "avocado", "mental").foreach { name =>
      val f = TableLakes(name)
      val space = new TabularSpace(f.uni, f.task)
      val l = space.layout
      val seg = l.segAttrs.head
      // random states masking a random subset of clusters on every segment attribute
      val rng = new scala.util.Random(17)
      val masked = Seq.fill(12) {
        l.segAttrs.foldLeft(space.full) { (s, a) =>
          val k = f.uni.clusterings(a).k
          rng.shuffle((0 until k).toList).take(1 + rng.nextInt(k)).foldLeft(s)((t, c) => t.clear(l.clusterIdx(a, c)))
        }
      }
      val states = Seq(
        space.full,
        space.full.clear(l.clusterIdx(seg, 0)),
        space.backStart) ++ masked
      // Spark's rows of every state from one job over D_U
      states.zip(f.referenceFrames(states)).foreach { case (s, ref) =>
        assert(space.rowCountEstimate(s) == ref.nRows, s"$name state $s")
        assert(f.uni.rowIndices(s).length == ref.nRows, s"$name state $s")
        assert(f.uni.rowIndices(s).map(f.uni.driverCopy.keys).toSeq == ref.keys.toSeq, s"$name state $s")
      }
    }
  }

  test("features vector has bitmap + 2 fractions") {
    val f = new SurrogateValuator(space, bootstrap = 0).features(space.full)
    assert(f.length == space.layout.width + 2)
    assert(f.last == 1.0) // all columns kept
    assert(f(space.layout.width) == 1.0) // all rows kept
  }

  test("evaluate is memoized (same instance back)") {
    val a = space.evaluate(space.full)
    val b = space.evaluate(space.full)
    assert(a eq b)
  }

  test("evaluate on full state yields usable metrics") {
    val r = space.evaluate(space.full).get
    assert(r.rows == movie.reference.nRows)
    assert(r.norm.length == task.measureNames.length)
  }

  test("measures come from the task") {
    assert(space.measures.map(_.name) == task.measureNames)
  }
}

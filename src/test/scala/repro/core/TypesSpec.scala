package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TypesSpec extends AnyFunSuite {

  private val layout = BitLayout(
    attrs = Vector("a", "b", "c"),
    segments = Vector("s1" -> 2, "s2" -> 3))

  test("layout width is attrs + clusters") { assert(layout.width == 8) }

  test("attr and cluster indices are disjoint and stable") {
    assert(layout.attrIdx("a") == 0)
    assert(layout.attrIdx("c") == 2)
    assert(layout.clusterIdx("s1", 0) == 3)
    assert(layout.clusterIdx("s2", 2) == 7)
  }

  test("clusterIdx rejects a cluster past its segment's k and an unknown segment") {
    intercept[IndexOutOfBoundsException](layout.clusterIdx("s1", 2))
    intercept[IndexOutOfBoundsException](layout.clusterIdx("s2", -1))
    intercept[NoSuchElementException](layout.clusterIdx("s3", 0))
  }

  test("segAttrs lists each segment once, in order") {
    assert(layout.segAttrs == Vector("s1", "s2"))
  }

  test("full state has every attr and cluster") {
    val s = State.full(layout.width)
    assert(layout.attrsOf(s) == Vector("a", "b", "c"))
    assert(layout.clustersOf(s, "s1") == Set(0, 1))
    assert(layout.clustersOf(s, "s2") == Set(0, 1, 2))
  }

  test("empty state has nothing") {
    val s = State.empty(layout.width)
    assert(layout.attrsOf(s).isEmpty)
    assert(layout.clustersOf(s, "s1").isEmpty)
  }

  test("clear drops exactly one bit") {
    val s = State.full(layout.width).clear(layout.attrIdx("b"))
    assert(layout.attrsOf(s) == Vector("a", "c"))
    assert(s.bits.size == layout.width - 1)
  }

  test("set restores a bit") {
    val s = State.empty(layout.width).set(layout.clusterIdx("s2", 1))
    assert(layout.clustersOf(s, "s2") == Set(1))
  }

  test("toVector is the 0/1 bitmap") {
    val s = State.empty(layout.width).set(0).set(7)
    assert(s.toVector.toSeq == Seq(1.0, 0, 0, 0, 0, 0, 0, 1.0))
  }

  test("state equality is structural") {
    val a = State.full(4).clear(1)
    val b = State.full(4).clear(1)
    assert(a == b && a.hashCode == b.hashCode)
  }

  test("toString renders the bitmap") {
    assert(State.empty(3).set(1).toString == "L[010]")
  }

  test("Measure rejects bad ranges") {
    intercept[IllegalArgumentException](Measure("x", lower = 0.0))
    intercept[IllegalArgumentException](Measure("x", lower = 0.9, upper = 0.1))
  }

  test("ModisResult.bestBy picks the minimum on the given measure") {
    val s1 = State.full(2); val s2 = State.empty(2)
    val r = ModisResult(Vector((s1, Array(0.3, 0.1)), (s2, Array(0.1, 0.9))), 2, 2)
    assert(r.bestBy(0).get._1 == s2)
    assert(r.bestBy(1).get._1 == s1)
  }

  test("ModisResult.bestBy on empty skyline is None") {
    assert(ModisResult(Vector.empty, 0, 0).bestBy(0).isEmpty)
  }
}

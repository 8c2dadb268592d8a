package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.BitSet

class ParetoSpec extends AnyFunSuite {

  test("dominates: strictly better everywhere") {
    assert(Pareto.dominates(Array(0.1, 0.1), Array(0.2, 0.2)))
  }
  test("dominates: equal on one, better on one") {
    assert(Pareto.dominates(Array(0.1, 0.2), Array(0.1, 0.3)))
  }
  test("dominates: incomparable vectors") {
    assert(!Pareto.dominates(Array(0.1, 0.5), Array(0.5, 0.1)))
    assert(!Pareto.dominates(Array(0.5, 0.1), Array(0.1, 0.5)))
  }
  test("dominates: equal vectors do not dominate") {
    assert(!Pareto.dominates(Array(0.3, 0.3), Array(0.3, 0.3)))
  }
  test("dominates is antisymmetric") {
    val a = Array(0.1, 0.4); val b = Array(0.2, 0.5)
    assert(Pareto.dominates(a, b) && !Pareto.dominates(b, a))
  }

  test("epsDominates relaxes by (1+eps)") {
    // a is 5% worse everywhere but within eps=0.1, and better on p2
    assert(Pareto.epsDominates(Array(0.105, 0.09), Array(0.1, 0.1), 0.1))
  }
  test("epsDominates requires a decisive measure") {
    // a worse on both (within factor) but better on none → not eps-dominant
    assert(!Pareto.epsDominates(Array(0.105, 0.105), Array(0.1, 0.1), 0.1))
  }
  test("epsDominates fails beyond the factor") {
    assert(!Pareto.epsDominates(Array(0.2, 0.05), Array(0.1, 0.1), 0.1))
  }
  test("plain dominance implies eps dominance") {
    val a = Array(0.1, 0.1); val b = Array(0.2, 0.2)
    assert(Pareto.epsDominates(a, b, 0.0) && Pareto.epsDominates(a, b, 0.3))
  }

  test("skyline of the Example 4 table is {D3, D5}") {
    // RMSE, R^2(inv), T_train rows of Example 4
    val pts = IndexedSeq(
      Array(0.48, 0.33, 0.37), // D1
      Array(0.41, 0.24, 0.37), // D2
      Array(0.26, 0.15, 0.37), // D3
      Array(0.37, 0.22, 0.39), // D4
      Array(0.25, 0.18, 0.35)) // D5
    assert(Pareto.skyline(pts) == Set(2, 4))
  }
  test("skyline of a single point is itself") {
    assert(Pareto.skyline(IndexedSeq(Array(0.5, 0.5))) == Set(0))
  }
  test("skyline keeps duplicates") {
    val pts = IndexedSeq(Array(0.1, 0.2), Array(0.1, 0.2), Array(0.3, 0.3))
    assert(Pareto.skyline(pts) == Set(0, 1))
  }
  test("skyline of a chain is the minimum") {
    val pts = IndexedSeq(Array(0.3, 0.3), Array(0.2, 0.2), Array(0.1, 0.1))
    assert(Pareto.skyline(pts) == Set(2))
  }
  test("skyline of an antichain is everything") {
    val pts = IndexedSeq(Array(0.1, 0.4), Array(0.2, 0.3), Array(0.3, 0.2), Array(0.4, 0.1))
    assert(Pareto.skyline(pts) == pts.indices.toSet)
  }
  private val twoMeasures = Vector(Measure("p1"), Measure("p2"))

  test("pos skips the decisive measure") {
    val p = Pareto.pos(Array(0.5, 0.7), twoMeasures, eps = 0.3)
    assert(p.length == 1)
  }
  test("pos is the floor of log_(1+eps)(p/p_l)") {
    val m = Vector(Measure("p1", lower = 0.1), Measure("p2"))
    val p = Pareto.pos(Array(0.1, 0.9), m, eps = 0.5)
    assert(p == Vector(0))
    val p2 = Pareto.pos(Array(0.151, 0.9), m, eps = 0.5)
    assert(p2 == Vector(1))
  }
  test("pos of three measures grids the first two") {
    val m = Vector(Measure("p1", lower = 0.1), Measure("p2", lower = 0.1), Measure("p3", lower = 0.1))
    assert(Pareto.pos(Array(0.1, 0.151, 0.5), m, eps = 0.5) == Vector(0, 1))
  }
  test("pos values below the lower bound clamp to bucket 0") {
    val m = Vector(Measure("p1", lower = 0.1), Measure("p2"))
    assert(Pareto.pos(Array(0.01, 0.5), m, 0.3) == Vector(0))
  }

  private def st(i: Int) = State(BitSet(i), 8)

  test("grid keeps mutually incomparable cells") {
    val g = new SkylineGrid(twoMeasures, eps = 0.1)
    assert(g.offer(st(0), Array(0.1, 0.9)))
    assert(g.offer(st(1), Array(0.9, 0.1)))
    assert(g.size == 2)
  }
  test("grid replaces same cell on better decisive measure") {
    val g = new SkylineGrid(twoMeasures, eps = 0.3)
    assert(g.offer(st(0), Array(0.5, 0.9)))
    assert(g.offer(st(1), Array(0.5, 0.5))) // same p1 bucket, better decisive
    assert(g.size == 1)
    assert(g.entries.head._1 == st(1))
  }
  test("grid keeps incumbent on worse decisive measure") {
    val g = new SkylineGrid(twoMeasures, eps = 0.3)
    assert(g.offer(st(0), Array(0.5, 0.5)))
    assert(!g.offer(st(1), Array(0.5, 0.9)))
    assert(g.entries.head._1 == st(0))
  }
  test("grid rejects upper-bound violations") {
    val m = Vector(Measure("p1", upper = 0.5), Measure("p2"))
    val g = new SkylineGrid(m, eps = 0.1)
    assert(!g.offer(st(0), Array(0.6, 0.1)))
    assert(g.size == 0)
  }
  test("grid retain trims to the given states") {
    val g = new SkylineGrid(twoMeasures, eps = 0.1)
    g.offer(st(0), Array(0.1, 0.9))
    g.offer(st(1), Array(0.9, 0.1))
    g.retain(Set(st(0)))
    assert(g.entries.map(_._1) == Vector(st(0)))
  }
  test("every offered in-bounds point is eps-dominated by some grid entry") {
    val rng = new scala.util.Random(11)
    val g = new SkylineGrid(twoMeasures, eps = 0.25)
    val offered = Vector.tabulate(200) { i =>
      val p = Array(0.001 + rng.nextDouble(), 0.001 + rng.nextDouble())
      g.offer(State(BitSet(i % 8), 8), p)
      p
    }
    val entries = g.entries.map(_._2)
    offered.foreach { p =>
      assert(entries.exists(e => Pareto.epsDominates(e, p, 0.25)),
        s"uncovered point ${p.toSeq}")
    }
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Algorithm tests on the closed-form [[SyntheticSpace]] — fast and fully
  * deterministic, no Spark or model training involved.
  */
class EngineSpec extends AnyFunSuite {

  private def freshRun(algo: (StateSpace, Valuator, ModisConfig) => ModisResult,
                       cfg: ModisConfig = ModisConfig(n = 200, eps = 0.2, maxl = 6),
                       space: SyntheticSpace = new SyntheticSpace()) = {
    val valuator = new SurrogateValuator(space, bootstrap = Int.MaxValue)
    (algo(space, valuator, cfg), valuator, space)
  }

  test("ApxMODis returns a non-empty skyline") {
    val (r, _, _) = freshRun(ApxMODis.run)
    assert(r.skyline.nonEmpty)
  }

  test("ApxMODis respects the N budget") {
    val cfg = ModisConfig(n = 10, eps = 0.2, maxl = 6)
    val (r, v, _) = freshRun(ApxMODis.run, cfg)
    assert(v.count <= 10 && r.valuated <= 10)
  }

  test("ApxMODis with maxl=0 only valuates the universal state") {
    val (r, v, space) = freshRun(ApxMODis.run, ModisConfig(n = 100, eps = 0.2, maxl = 0))
    assert(v.count == 1)
    assert(r.skyline.map(_._1) == Vector(space.full))
  }

  test("ApxMODis improves err over the universal state") {
    val (r, _, space) = freshRun(ApxMODis.run)
    val uErr = space.perf(space.full)(0)
    val best = r.bestBy(0).get._2(0)
    assert(best < uErr, s"best=$best universal=$uErr")
  }

  test("ApxMODis skyline entries all satisfy upper bounds") {
    val bounded = new SyntheticSpace(Some(Vector(Measure("err", upper = 0.45), Measure("cost"))))
    val (r, _, _) = freshRun(ApxMODis.run, space = bounded)
    assert(r.skyline.nonEmpty)
    assert(r.skyline.forall(_._2(0) <= 0.45))
  }

  test("ApxMODis: every valuated in-bounds state is eps-dominated by a skyline entry") {
    val cfg = ModisConfig(n = 300, eps = 0.25, maxl = 6)
    val (r, v, _) = freshRun(ApxMODis.run, cfg)
    val entries = r.skyline.map(_._2)
    v.records.foreach { case (_, p) =>
      assert(entries.exists(e => Pareto.epsDominates(e, p, cfg.eps)),
        s"uncovered ${p.toSeq}")
    }
  }

  test("ApxMODis is deterministic") {
    val (a, _, _) = freshRun(ApxMODis.run)
    val (b, _, _) = freshRun(ApxMODis.run)
    assert(a.skyline.map(_._1) == b.skyline.map(_._1))
  }

  test("ApxMODis explores only reduct transitions (monotone popcount)") {
    val (r, v, space) = freshRun(ApxMODis.run)
    assert(v.records.forall(_._1.bits.size <= space.full.bits.size))
    assert(r.explored > 0)
  }

  test("NOBiMODis returns a non-empty skyline and valuates the back state") {
    val (r, v, space) = freshRun(NOBiMODis.run)
    assert(r.skyline.nonEmpty)
    assert(v.records.exists(_._1 == space.backStart))
  }

  test("NOBiMODis coverage property holds") {
    val cfg = ModisConfig(n = 300, eps = 0.3, maxl = 6)
    val (r, v, _) = freshRun(NOBiMODis.run, cfg)
    val entries = r.skyline.map(_._2)
    v.records.foreach { case (_, p) =>
      assert(entries.exists(e => Pareto.epsDominates(e, p, cfg.eps)))
    }
  }

  test("BiMODis prunes some states with correlation pruning") {
    // cost is perfectly rank-correlated with |D| in SyntheticSpace, err less
    // so; with a permissive theta both measures parameterize and pruning
    // fires once enough records accumulate.
    val cfg = ModisConfig(n = 300, eps = 0.3, maxl = 6, theta = 0.3)
    val (r, _, _) = freshRun(BiMODis.run, cfg)
    assert(r.skyline.nonEmpty)
    assert(r.pruned >= 0)
  }

  test("BiMODis pruning skips valuation of pruned states") {
    val cfg = ModisConfig(n = 300, eps = 0.3, maxl = 6, theta = 0.3)
    val (rBi, vBi, _) = freshRun(BiMODis.run, cfg)
    // explored counts generated candidates; pruned ones were never valuated
    assert(vBi.count <= rBi.explored + 2 - rBi.pruned)
  }

  test("BiMODis finds an entry at least as good as ApxMODis on err within budget") {
    val cfg = ModisConfig(n = 80, eps = 0.2, maxl = 6)
    val (rBi, _, _) = freshRun(BiMODis.run, cfg)
    val (rApx, _, _) = freshRun(ApxMODis.run, cfg)
    // both must improve on universal; bi-directional should not be much worse
    assert(rBi.bestBy(0).get._2(0) <= rApx.bestBy(0).get._2(0) + 0.15)
  }

  test("DivMODis bounds the skyline size by k") {
    val cfg = ModisConfig(n = 300, eps = 0.05, maxl = 6, k = 3)
    val (r, _, _) = freshRun(DivMODis.run, cfg)
    assert(r.skyline.nonEmpty && r.skyline.size <= 3)
  }

  test("DivMODis is deterministic for a fixed seed") {
    val cfg = ModisConfig(n = 200, eps = 0.1, maxl = 6, k = 4, seed = 11)
    val (a, _, _) = freshRun(DivMODis.run, cfg)
    val (b, _, _) = freshRun(DivMODis.run, cfg)
    assert(a.skyline.map(_._1) == b.skyline.map(_._1))
  }

  test("smaller eps yields at least as many grid cells") {
    val fine = freshRun(NOBiMODis.run, ModisConfig(n = 300, eps = 0.05, maxl = 6))._1
    val coarse = freshRun(NOBiMODis.run, ModisConfig(n = 300, eps = 0.6, maxl = 6))._1
    assert(fine.skyline.size >= coarse.skyline.size)
  }

  test("diversify keeps k entries and does not invent new ones") {
    val space = new SyntheticSpace()
    val pool = Vector.tabulate(10) { i =>
      val s = State.full(space.layout.width).clear(i % space.layout.width)
      (s, space.perf(s))
    }
    val kept = ModisEngine.diversify(pool, k = 4, alpha = 0.5, new scala.util.Random(3))
    assert(kept.size == 4)
    assert(kept.forall(pool.contains))
  }

  test("diversify with alpha=1 prefers distinct bitmaps") {
    val space = new SyntheticSpace()
    val w = space.layout.width
    val near = Vector.tabulate(3)(i => (State.full(w).clear(0).clear(1).clear(2 + i), Array(0.5, 0.5)))
    val far = Vector((State.empty(w).set(0).set(w - 1), Array(0.5, 0.5)))
    val pool = near ++ far
    val kept = ModisEngine.diversify(pool, k = 2, alpha = 1.0, new scala.util.Random(1))
    assert(kept.exists(_._1 == far.head._1))
  }

  test("div score is monotone under adding an element") {
    val space = new SyntheticSpace()
    val w = space.layout.width
    val a = (State.full(w), Array(0.2, 0.8))
    val b = (State.empty(w).set(0), Array(0.8, 0.2))
    val c = (State.empty(w).set(1).set(2), Array(0.5, 0.5))
    val d2 = ModisEngine.div(Seq(a, b), 0.5, 1.0)
    val d3 = ModisEngine.div(Seq(a, b, c), 0.5, 1.0)
    assert(d3 >= d2)
  }

  test("surrogate valuator bootstraps exactly then estimates") {
    val space = new SyntheticSpace()
    val v = new SurrogateValuator(space, bootstrap = 5)
    val cfg = ModisConfig(n = 60, eps = 0.2, maxl = 6)
    val r = NOBiMODis.run(space, v, cfg)
    assert(r.skyline.nonEmpty)
    assert(v.count <= 60)
    // estimates of the first bootstrapped states are exact
    val sU = space.full
    assert(v.valuate(sU).get.toSeq == space.perf(sU).toSeq)
  }

  test("surrogate estimates correlate with truth on unseen states") {
    val space = new SyntheticSpace()
    val v = new SurrogateValuator(space, bootstrap = 40)
    NOBiMODis.run(space, v, ModisConfig(n = 150, eps = 0.1, maxl = 6))
    // compare estimate vs closed form on a handful of states
    val probes = Seq(
      space.full.clear(4), space.full.clear(0), space.full.clear(6),
      space.full.clear(4).clear(5))
    val est = probes.flatMap(v.valuate).map(_(0)).toArray
    val tru = probes.map(space.perf(_)(0)).toArray
    assert(repro.util.Stats.pearson(est, tru) > 0.0 || est.distinct.length == 1)
  }

  test("surrogate valuator stays exact until a bootstrap valuation is usable") {
    val space = new SyntheticSpace()
    val v = new SurrogateValuator(space, bootstrap = 1)
    assert(v.valuate(State.empty(space.layout.width)).isEmpty)
    assert(v.valuate(space.full).map(_.toSeq) == Some(space.perf(space.full).toSeq))
  }

  test("exact valuator memoizes (count = unique states)") {
    val space = new SyntheticSpace()
    val v = new SurrogateValuator(space, bootstrap = Int.MaxValue)
    v.valuate(space.full); v.valuate(space.full)
    assert(v.count == 1)
  }
}

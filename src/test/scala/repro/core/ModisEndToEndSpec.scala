package repro.core

import repro.{SparkSpec, TableLakes}

/** End-to-end MODis runs on a tiny real lake: driver-side evaluation, real
  * model training, surrogate estimation — qualitative properties only
  * (winners, coverage, budget), never wall-clock assertions.
  */
class ModisEndToEndSpec extends SparkSpec {

  private val house = TableLakes("house")
  import house.{task, uni}
  private lazy val space = new TabularSpace(uni, task)
  private val cfg = ModisConfig(n = 40, eps = 0.2, maxl = 4, bootstrap = 15)

  private def run(algo: (StateSpace, Valuator, ModisConfig) => ModisResult) = {
    val v = new SurrogateValuator(space, cfg.bootstrap)
    (algo(space, v, cfg), v)
  }

  test("ApxMODis produces a non-empty skyline within budget") {
    val (r, v) = run(ApxMODis.run)
    assert(r.skyline.nonEmpty)
    assert(v.count <= cfg.n)
  }

  test("ApxMODis best-f1 dataset is a real, usable table") {
    val (r, v) = run(ApxMODis.run)
    val best = r.bestBy(task.measureNames.indexOf("f1")).get
    val exact = v.exact(best._1)
    assert(exact.isDefined)
    assert(exact.get.raw("f1") > 0.4)
  }

  test("NOBiMODis also reaches a usable skyline") {
    val (r, v) = run(NOBiMODis.run)
    assert(r.skyline.nonEmpty)
    val best = r.bestBy(0).get
    assert(v.exact(best._1).isDefined)
  }

  test("BiMODis with pruning still returns results") {
    val (r, _) = run(BiMODis.run)
    assert(r.skyline.nonEmpty)
  }

  test("DivMODis respects k") {
    val v = new SurrogateValuator(space, cfg.bootstrap)
    val r = DivMODis.run(space, v, cfg.copy(k = 3))
    assert(r.skyline.nonEmpty && r.skyline.size <= 3)
  }

  test("skyline entries lie within measure upper bounds") {
    val (r, _) = run(ApxMODis.run)
    r.skyline.foreach { case (_, p) =>
      space.measures.indices.foreach(i => assert(p(i) <= space.measures(i).upper + 1e-9))
    }
  }

  test("skyline states are valid (admissible) states") {
    val (r, _) = run(NOBiMODis.run)
    r.skyline.foreach { case (s, _) => assert(space.admissible(s)) }
  }

  test("MODis discovers a table at least as accurate as the universal table") {
    val (r, v) = run(NOBiMODis.run)
    val accIdx = task.measureNames.indexOf("acc")
    val uniAcc = space.evaluate(space.full).get.raw("acc")
    val best = r.bestBy(accIdx).get
    val bestAcc = v.exact(best._1).map(_.raw("acc")).getOrElse(0.0)
    assert(bestAcc >= uniAcc - 0.1, s"best=$bestAcc universal=$uniAcc")
  }

  test("Runner.modisReports yields one row per algorithm with real metrics") {
    val reports = Runner.modisReports(() => space, cfg, primaryIdx = 0)
    assert(reports.map(_.method) ==
      Vector("ApxMODis", "NOBiMODis", "BiMODis", "DivMODis"))
    reports.foreach { rep =>
      assert(rep.raw.contains("acc") && rep.rows > 0 && rep.cols > 0)
    }
  }

  test("Runner.formatTable renders a row per metric plus size and time") {
    val reports = Vector(MethodReport("X", Map("acc" -> 0.5), 10, 2, 0.1))
    val out = Runner.formatTable("t", Seq("acc" -> "p_Acc"), reports)
    assert(out.contains("p_Acc") && out.contains("(10,2)") && out.contains("X"))
  }
}

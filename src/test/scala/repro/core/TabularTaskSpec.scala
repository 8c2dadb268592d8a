package repro.core

import repro.SparkSpec

class TabularTaskSpec extends SparkSpec {

  private lazy val lake = Runner.lakeByName(spark, "house", 0.01)
  private lazy val uni = Universal.build(lake)
  private lazy val task = TabularTask.forLake(lake)
  private lazy val fullDf = uni.materialize(State.full(uni.layout.width))

  test("task assignment follows the paper's table") {
    assert(TabularTask.forLake(Runner.lakeByName(spark, "movie", 0.01)).modelKind == ModelKind.GBM)
    assert(task.modelKind == ModelKind.RF)
    assert(TabularTask.forLake(Runner.lakeByName(spark, "avocado", 0.01)).modelKind == ModelKind.Ridge)
    assert(TabularTask.forLake(Runner.lakeByName(spark, "mental", 0.01)).modelKind == ModelKind.GBM)
  }

  test("unknown lake name is rejected") {
    intercept[IllegalArgumentException](
      TabularTask.forLake(lake.copy(name = "nope")))
  }

  test("lakeByName, primaryMeasure and forLake reject an unknown name with one error") {
    val errors = Seq(
      intercept[IllegalArgumentException](Runner.lakeByName(spark, "nope", 0.01)),
      intercept[IllegalArgumentException](Runner.primaryMeasure("nope")),
      intercept[IllegalArgumentException](TabularTask.forLake(lake.copy(name = "nope"))))
    assert(errors.map(_.getMessage).distinct == Seq("unknown lake nope"))
  }

  test("evaluation produces classification metrics for house") {
    val r = task.evaluate(fullDf).get
    Seq("acc", "prec", "rec", "f1", "auc", "train", "fsc", "mi").foreach { k =>
      assert(r.raw.contains(k), s"missing $k")
    }
    assert(r.raw("acc") > 0.5, s"acc=${r.raw("acc")}")
  }

  test("evaluation produces regression metrics for movie") {
    val ml = Runner.lakeByName(spark, "movie", 0.01)
    val mu = Universal.build(ml)
    val mt = TabularTask.forLake(ml)
    val r = mt.evaluate(mu.materialize(State.full(mu.layout.width))).get
    Seq("mse", "mae", "rmse", "r2", "acc").foreach(k => assert(r.raw.contains(k)))
    assert(r.raw("mse") > 0.0)
  }

  test("norm vector is aligned with measureNames and in (0,1]") {
    val r = task.evaluate(fullDf).get
    assert(r.norm.length == task.measureNames.length)
    assert(r.norm.forall(v => v > 0 && v <= 1.0))
  }

  test("normalize inverts accuracy-like measures") {
    assert(math.abs(task.normalize("acc", Map("acc" -> 0.9)) - 0.1) < 1e-9)
    assert(math.abs(task.normalize("f1", Map("f1" -> 1.0)) - 1e-3) < 1e-9) // clipped
  }

  test("normalize maps quality scores through 1/(1+v)") {
    assert(math.abs(task.normalize("fsc", Map("fsc" -> 1.0)) - 0.5) < 1e-9)
  }

  test("normalize scales costs by calibration") {
    val cal = new TabularTask(lake, ModelKind.RF, Vector("train"), Map("train" -> 2.0))
    assert(math.abs(cal.normalize("train", Map("train" -> 2.0)) - 0.5) < 1e-9)
    assert(math.abs(cal.normalize("train", Map("train" -> 8.0)) - 1.0) < 1e-9) // clipped
  }

  test("normalize rejects unknown measures") {
    intercept[IllegalArgumentException](task.normalize("zzz", Map("zzz" -> 1.0)))
  }

  test("too-small datasets evaluate to None") {
    assert(task.evaluate(fullDf.limit(10)).isEmpty)
  }

  test("feature-less datasets evaluate to None") {
    assert(task.evaluate(fullDf.select("id", "target")).isEmpty)
  }

  test("single-class train split evaluates to None") {
    assert(task.evaluate(fullDf.filter("target = 1.0")).isEmpty)
  }

  test("calibrated task stores denominators") {
    val cal = task.calibrated(fullDf)
    assert(cal.calibration.contains("train") && cal.calibration("train") > 0)
  }

  test("output size is reported") {
    val r = task.evaluate(fullDf).get
    assert(r.rows == fullDf.count())
    assert(r.cols == fullDf.columns.length - 2)
  }

  test("dropping noise columns does not hurt accuracy much") {
    val keep = fullDf.columns.filterNot(c => lake.noiseAttrs.contains(c))
    val rFull = task.evaluate(fullDf).get
    val rClean = task.evaluate(fullDf.select(keep.map(org.apache.spark.sql.functions.col): _*)).get
    assert(rClean.raw("acc") >= rFull.raw("acc") - 0.08,
      s"clean=${rClean.raw("acc")} full=${rFull.raw("acc")}")
  }
}

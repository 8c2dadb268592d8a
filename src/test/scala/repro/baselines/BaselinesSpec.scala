package repro.baselines

import org.apache.spark.sql.functions.udf
import repro.SparkSpec
import repro.core.{EvalResult, Runner, TabularTask, Universal, UniversalTable}
import repro.lake.LakeTable
import repro.ml.Frame
import repro.util.Stats

/** Evaluation of a baseline's output: its attributes of D_U's driver copy
  * over all rows, as Runner reports it.
  */
private object Cut {
  def rows(uni: UniversalTable, attrs: Seq[String]): Array[Double] = uni.project(attrs).y

  def evaluate(uni: UniversalTable, task: TabularTask, attrs: Seq[String]): Option[EvalResult] =
    task.evaluate(uni.project(attrs))
}

class MetamSpec extends SparkSpec {

  private lazy val lake = Runner.lakeByName(spark, "house", 0.01)
  private lazy val uni = Universal.build(lake)
  private lazy val task = TabularTask.forLake(lake)

  test("METAM output contains the base columns") {
    val out = Metam.run(uni, task, "f1")
    assert(lake.attrsOf(lake.base).forall(out.contains))
  }

  test("METAM output preserves the base row count (left joins)") {
    val out = Metam.run(uni, task, "f1")
    assert(Cut.rows(uni, out).length == lake.base.df.count())
  }

  test("METAM output is evaluable") {
    val out = Metam.run(uni, task, "f1")
    assert(Cut.evaluate(uni, task, out).isDefined)
  }

  test("METAM never joins non-joinable distractors") {
    val out = Metam.run(uni, task, "f1")
    val distractorCols = lake.distractors.flatMap(_.df.columns).filterNot(_ == "code").toSet
    assert(out.toSet.intersect(distractorCols).isEmpty)
  }

  test("METAM utility improves or stays equal vs base-only") {
    val out = Metam.run(uni, task, "f1")
    val baseF1 = Cut.evaluate(uni, task, lake.attrsOf(lake.base)).get.raw("f1")
    val outF1 = Cut.evaluate(uni, task, out).get.raw("f1")
    assert(outF1 >= baseF1 - 0.05, s"out=$outF1 base=$baseF1")
  }

  test("METAM-MO runs and is evaluable") {
    val out = Metam.runMO(uni, task)
    assert(Cut.evaluate(uni, task, out).isDefined)
  }
}

class StarmieSpec extends SparkSpec {

  private lazy val lake = Runner.lakeByName(spark, "house", 0.01)
  private lazy val uni = Universal.build(lake)

  test("column sketch has histogram + moment entries") {
    val vals = Frame.collect(lake.base.df, lake.key, lake.target, Seq("seg_quality")).cols(0)
    val s = Starmie.columnSketch(vals)
    assert(s.length == Starmie.Bins + 2)
    assert(math.abs(s.take(Starmie.Bins).sum - 1.0) < 1e-6)
  }

  test("sketch of an empty column is all zeros") {
    val s = Starmie.columnSketch(Array.empty[Double])
    assert(s.forall(_ == 0.0))
  }

  test("run reads each lake table's rows exactly once") {
    val tables = lake.base +: (lake.aux ++ lake.distractors)
    assert(tables.map(_.name).distinct.size == tables.size)
    val reads = tables.map(t => t.name -> spark.sparkContext.longAccumulator(t.name)).toMap
    def counted(t: LakeTable): LakeTable = {
      val acc = reads(t.name)
      val read = udf { () => acc.add(1); true }.asNondeterministic()
      t.copy(df = t.df.filter(read()))
    }
    Starmie.run(lake.copy(base = counted(lake.base), aux = lake.aux.map(counted),
      distractors = lake.distractors.map(counted)))
    tables.foreach(t => assert(reads(t.name).value == t.df.count(), t.name))
  }

  test("similar columns score higher than dissimilar ones") {
    // each column's sketch but id's and target's, cells read as Starmie reads them
    def sketches(t: LakeTable): Seq[Array[Double]] = {
      val rows = t.df.collect()
      t.df.columns.indices.filterNot(j => Set("id", "target")(t.df.columns(j)))
        .map(j => Starmie.columnSketch(rows.map(Frame.doubleAt(_, j)).filterNot(_.isNaN)))
    }
    def bestCosine(a: LakeTable, b: LakeTable): Double =
      (for (sa <- sketches(a); sb <- sketches(b)) yield Stats.cosine(sa, sb)).max
    val simAux = bestCosine(lake.base, lake.aux.head)
    val simDis = bestCosine(lake.base, lake.distractors.head)
    assert(simAux > simDis, s"aux=$simAux distractor=$simDis")
  }

  test("run augments the base with similar joinable tables") {
    val out = Starmie.run(lake)
    assert(out.length > lake.attrsOf(lake.base).length)
    assert(Cut.rows(uni, out).length == lake.base.df.count())
  }

  test("run with an impossible threshold returns the base unchanged") {
    val out = Starmie.run(lake, threshold = 2.0)
    assert(out == lake.attrsOf(lake.base))
  }

  test("run never joins on a missing key") {
    val out = Starmie.run(lake, threshold = 0.0)
    val distractorCols = lake.distractors.flatMap(_.df.columns).filterNot(_ == "code").toSet
    assert(out.toSet.intersect(distractorCols).isEmpty)
  }
}

class FeatureSelectSpec extends SparkSpec {

  private lazy val lake = Runner.lakeByName(spark, "house", 0.01)
  private lazy val uni = Universal.build(lake)
  private lazy val task = TabularTask.forLake(lake)
  private lazy val sU = uni.project(uni.layout.attrs)

  test("SkSFM reduces the column count") {
    val out = FeatureSelect.skSFM(sU, task)
    assert(out.length < sU.nCols)
    assert(out.forall(sU.names.contains))
  }

  test("SkSFM keeps all rows") {
    val out = FeatureSelect.skSFM(sU, task)
    assert(Cut.rows(uni, out).length == uni.df.count())
  }

  test("SkSFM output is evaluable") {
    assert(Cut.evaluate(uni, task, FeatureSelect.skSFM(sU, task)).isDefined)
  }

  test("SkSFM retains some informative features and not everything") {
    // at SF=0.01 (200 rows, ~18% flipped labels) importance estimates are
    // noisy — require signal retention, not a clean noise/informative split
    val kept = FeatureSelect.skSFM(sU, task)
    val informativeKept = kept.count(c => lake.informativeAttrs.contains(c))
    assert(informativeKept >= 1, s"kept=$kept")
    assert(kept.length < sU.nCols)
  }

  test("H2O reduces the column count and keeps rows") {
    val out = FeatureSelect.h2o(sU, task)
    assert(out.length < sU.nCols)
    assert(Cut.rows(uni, out).length == uni.df.count())
  }

  test("H2O output is evaluable") {
    assert(Cut.evaluate(uni, task, FeatureSelect.h2o(sU, task)).isDefined)
  }

  test("regression variants work (avocado lake)") {
    val rl = Runner.lakeByName(spark, "avocado", 0.01)
    val ru = Universal.build(rl)
    val rt = TabularTask.forLake(rl)
    val rsU = ru.project(ru.layout.attrs)
    assert(Cut.evaluate(ru, rt, FeatureSelect.skSFM(rsU, rt)).isDefined)
    assert(Cut.evaluate(ru, rt, FeatureSelect.h2o(rsU, rt)).isDefined)
  }
}

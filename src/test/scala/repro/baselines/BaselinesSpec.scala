package repro.baselines

import org.apache.spark.sql.functions.udf
import repro.{SparkSpec, TableLakes}
import repro.lake.LakeTable
import repro.ml.Frame
import repro.util.Stats

class MetamSpec extends SparkSpec {

  private val house = TableLakes("house")
  import house.{lake, task, uni}
  private lazy val out = Metam.run(uni, task, "f1")

  test("METAM output contains the base columns") {
    assert(lake.attrsOf(lake.base).forall(out.contains))
  }

  test("METAM output preserves the base row count (left joins)") {
    assert(uni.project(out).nRows == lake.base.df.count())
  }

  test("METAM output is evaluable") {
    assert(task.evaluate(uni.project(out)).isDefined)
  }

  test("METAM never joins non-joinable distractors") {
    val distractorCols = lake.distractors.flatMap(_.df.columns).filterNot(_ == "code").toSet
    assert(out.toSet.intersect(distractorCols).isEmpty)
  }

  test("METAM utility improves or stays equal vs base-only") {
    val baseF1 = task.evaluate(uni.project(lake.attrsOf(lake.base))).get.raw("f1")
    val outF1 = task.evaluate(uni.project(out)).get.raw("f1")
    assert(outF1 >= baseF1 - 0.05, s"out=$outF1 base=$baseF1")
  }

  test("METAM-MO runs and is evaluable") {
    assert(task.evaluate(uni.project(Metam.runMO(uni, task))).isDefined)
  }
}

class StarmieSpec extends SparkSpec {

  private val house = TableLakes("house")
  import house.{lake, uni}

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
    assert(uni.project(out).nRows == lake.base.df.count())
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

  private val house = TableLakes("house")
  import house.{lake, task, uni}
  private lazy val sU = uni.project(uni.layout.attrs)
  private lazy val (skSFM, h2o) = (FeatureSelect.skSFM(sU, task), FeatureSelect.h2o(sU, task))

  test("SkSFM reduces the column count") {
    assert(skSFM.length < sU.nCols)
    assert(skSFM.forall(sU.names.contains))
  }

  test("SkSFM keeps all rows") {
    assert(uni.project(skSFM).nRows == house.reference.nRows)
  }

  test("SkSFM output is evaluable") {
    assert(task.evaluate(uni.project(skSFM)).isDefined)
  }

  test("SkSFM retains some informative features and not everything") {
    // at SF=0.01 (200 rows, ~18% flipped labels) importance estimates are
    // noisy — require signal retention, not a clean noise/informative split
    val informativeKept = skSFM.count(c => lake.informativeAttrs.contains(c))
    assert(informativeKept >= 1, s"kept=$skSFM")
    assert(skSFM.length < sU.nCols)
  }

  test("H2O reduces the column count and keeps rows") {
    assert(h2o.length < sU.nCols)
    assert(uni.project(h2o).nRows == house.reference.nRows)
  }

  test("H2O output is evaluable") {
    assert(task.evaluate(uni.project(h2o)).isDefined)
  }

  test("regression variants work (avocado lake)") {
    val avocado = TableLakes("avocado")
    val (ru, rt) = (avocado.uni, avocado.task)
    val rsU = ru.project(ru.layout.attrs)
    assert(rt.evaluate(ru.project(FeatureSelect.skSFM(rsU, rt))).isDefined)
    assert(rt.evaluate(ru.project(FeatureSelect.h2o(rsU, rt))).isDefined)
  }
}

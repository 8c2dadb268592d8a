package repro.core

import java.security.MessageDigest
import repro.SparkSpec
import repro.baselines.FeatureSelect
import repro.ml.Frame

/** Golden exact evaluations of every Table lake at SF 0.01, through the
  * search's own path (`TabularSpace.evaluate`). Pinned per lake:
  *  - s_U's raw metrics apart from wall-clock `train`, in shortest
  *    round-trip form, so string equality is bit equality;
  *  - one SHA-256 over BackSt, every one-flip reduct of s_U and the
  *    SkSFM and H2O outputs: each state's raw metric bits without `train`,
  *    and its rows and cols, or "unusable".
  *
  * SkSFM and H2O select from s_U collected through Spark; their outputs
  * are all of D_U's rows, so they are evaluated as the state keeping
  * exactly their attributes. A refactor of the evaluation path must
  * reproduce these strings exactly.
  */
class EvaluationGoldenSpec extends SparkSpec {

  private final class Fixture(name: String) {
    private val lake = Runner.lakeByName(spark, name, 0.01)
    private val uni = Universal.build(lake)
    private val task = TabularTask.forLake(lake)
    private val space = new TabularSpace(uni, task)
    private val l = uni.layout

    def sU: String = render(space.evaluate(space.full))

    def digest: String = {
      val (_, frame) = Frame.collect(uni.materialize(space.full), uni.key, uni.target, l.attrs)
      val selected = Seq(FeatureSelect.skSFM(frame, task), FeatureSelect.h2o(frame, task)).map { attrs =>
        l.attrs.filterNot(attrs.contains).foldLeft(space.full)((s, a) => s.clear(l.attrIdx(a)))
      }
      val states = (space.backStart +: space.neighborsReduct(space.full)) ++ selected
      val md = MessageDigest.getInstance("SHA-256")
      states.foreach { s =>
        val line = space.evaluate(s).fold("unusable") { r =>
          (r.raw - "train").toSeq.sorted
            .map { case (k, v) => s"$k=${java.lang.Long.toHexString(java.lang.Double.doubleToLongBits(v))}" }
            .mkString(",") + s";${r.rows};${r.cols}"
        }
        md.update(s"$s:$line\n".getBytes("UTF-8"))
      }
      md.digest().map(b => f"${b & 0xff}%02x").mkString
    }
  }

  private def render(r: Option[EvalResult]): String = r.fold("unusable") { e =>
    (e.raw - "train").toSeq.sorted.map { case (k, v) => s"$k=$v" }.mkString(",") + s" (${e.rows},${e.cols})"
  }

  // Recorded at SF 0.01, not derived: any change is a change of behaviour.
  private val expected: Map[String, (String, String)] = Map(
    "movie" -> (
      "acc=0.5333333333333333,fsc=0.050812534524958174,mae=1.5422988906669552,mi=0.025240686148672555,mse=4.777721451094513,r2=0.07656176237591938,rmse=2.1857999567880206 (373,11)",
      "4ca0fde44e88461a29061f6246c3a0d37fc742764ff522fd47539fb6c9e8e183"),
    "house" -> (
      "acc=0.55,auc=0.5839598997493735,f1=0.5500000000000002,fsc=0.017145360703632383,mi=0.013403722539840275,prec=0.5789473684210527,rec=0.5238095238095238 (200,24)",
      "f7d8deaad8e5e9558457e65bb7dcce2aa0ba7557a5aa9d0d285b01fd2d83bc79"),
    "avocado" -> (
      "acc=0.8465753424657534,mae=0.8535751802800738,mse=3.073038297455971,r2=0.4364677031370141,rmse=1.7530083563565722 (1824,12)",
      "71dcdd6fbb39d0bbc057c1fd64ec147960a3e59b8fb8cd2d2b2ef9a5d1e9b87a"),
    "mental" -> (
      "acc=0.7025,auc=0.8080278986594638,f1=0.7331838565022422,prec=0.654,rec=0.8341836734693877 (8000,19)",
      "a791d909b69d56703cb78805d4688025012b3ad21eff663b16bbc516ff6aedd2"))

  Seq("movie", "house", "avocado", "mental").foreach { name =>
    test(s"$name: s_U, BackSt, the one-flip reducts and SkSFM/H2O evaluate to their golden") {
      val f = new Fixture(name)
      assert((f.sU, f.digest) == expected(name))
    }
  }
}

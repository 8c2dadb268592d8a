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
      val frame = Frame.collect(uni.materialize(space.full), uni.key, uni.target, l.attrs)
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
      "acc=0.6666666666666666,fsc=0.050812534524958174,mae=1.3788486739981385,mi=0.025240686148672555,mse=4.563174765059179,r2=0.11802935643064805,rmse=2.1361588810430696 (373,11)",
      "072cbeb19ffb8bcfef39e9705c2400522421209bd7b72e269ccba29056ef8555"),
    "house" -> (
      "acc=0.625,auc=0.6842105263157895,f1=0.5945945945945946,fsc=0.017145360703632383,mi=0.013403722539840275,prec=0.6875,rec=0.5238095238095238 (200,24)",
      "d654024f6134dea052ed41f9f6ded57896fd5c617fefa72c419bb400ae161469"),
    "avocado" -> (
      "acc=0.8465753424657534,mae=0.8535751802800738,mse=3.073038297455971,r2=0.4364677031370141,rmse=1.7530083563565722 (1824,12)",
      "452b60da13ffe7b00d5f47fd9a5366111d7b565d59f0d4933d1befd1b99a4e06"),
    "mental" -> (
      "acc=0.77125,auc=0.8729429271708683,f1=0.7680608365019012,prec=0.7632241813602015,rec=0.7729591836734694 (8000,19)",
      "db711fea40dc68d647bcbac1f17537d0750984ce6532fe65c22e1ad1aaea051c"))

  Seq("movie", "house", "avocado", "mental").foreach { name =>
    test(s"$name: s_U, BackSt, the one-flip reducts and SkSFM/H2O evaluate to their golden") {
      val f = new Fixture(name)
      assert((f.sU, f.digest) == expected(name))
    }
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Golden outputs of the four MODis algorithms on the closed-form
  * [[SyntheticSpace]]: skyline bitmaps and vectors plus the `valuated`,
  * `explored` and `pruned` counters, under an exact-only valuator
  * (`bootstrap = Int.MaxValue`) and under the MO-GBM surrogate
  * (`bootstrap = 5`). A refactor of the search or of the valuators must
  * reproduce these strings exactly; doubles print in their shortest
  * round-trip form, so string equality is bit equality.
  */
class GoldenSearchSpec extends AnyFunSuite {

  private val cfg = ModisConfig(n = 200, eps = 0.2, maxl = 6)

  private val algos: Vector[(String, (StateSpace, Valuator, ModisConfig) => ModisResult, ModisConfig)] =
    Vector(
      ("ApxMODis", ApxMODis.run, cfg),
      ("NOBiMODis", NOBiMODis.run, cfg),
      ("BiMODis", BiMODis.run, cfg.copy(theta = 0.3)),
      ("DivMODis", DivMODis.run, cfg))

  private def render(r: ModisResult): String =
    s"valuated=${r.valuated} explored=${r.explored} pruned=${r.pruned} skyline=" +
      r.skyline.map { case (s, p) => s"$s${p.mkString("(", ",", ")")}" }.mkString(";")

  private def run(algo: (StateSpace, Valuator, ModisConfig) => ModisResult, c: ModisConfig,
                  bootstrap: Int): String = {
    val space = new SyntheticSpace()
    render(algo(space, new SurrogateValuator(space, bootstrap), c))
  }

  private def golden(counters: String, skyline: String*): String = counters + skyline.mkString(";")

  // Recorded, not derived: any change to these strings is a change of behaviour.
  private val expected: Map[(String, String), String] = Map(
    ("ApxMODis", "exact") -> golden("valuated=200 explored=199 pruned=0 skyline=",
      "L[001101001](0.37999999999999995,0.14)",
      "L[000101001](0.49999999999999994,0.11000000000000001)",
      "L[001100001](0.33999999999999997,0.11000000000000001)",
      "L[111111001](0.18,0.23000000000000004)",
      "L[111101001](0.14,0.2)",
      "L[011101001](0.26,0.17)",
      "L[111100001](0.1,0.17)",
      "L[011100001](0.22,0.14)",
      "L[000100011](0.45999999999999996,0.125)",
      "L[000011001](0.6599999999999999,0.11000000000000001)"),
    ("ApxMODis", "surrogate") -> golden("valuated=200 explored=199 pruned=0 skyline=",
      "L[100000011](0.3568833225669681,0.13129509733672412)",
      "L[100001001](0.49999999999999994,0.11000000000000001)",
      "L[100100001](0.33999999999999997,0.11000000000000001)",
      "L[001001001](0.4761750542728855,0.11536394945350315)",
      "L[111101011](0.14,0.425)",
      "L[110101001](0.26,0.17)",
      "L[111000001](0.22,0.14)",
      "L[101101010](0.18352604392370378,0.23267122023937184)",
      "L[111100010](0.1,0.22999999999999998)",
      "L[100000101](0.6599999999999999,0.155)"),
    ("NOBiMODis", "exact") -> golden("valuated=54 explored=54 pruned=0 skyline=",
      "L[110010010](0.37999999999999995,0.185)",
      "L[110000010](0.33999999999999997,0.14)",
      "L[110000110](0.54,0.29000000000000004)",
      "L[111111001](0.18,0.23000000000000004)",
      "L[011100001](0.22,0.14)",
      "L[111101001](0.14,0.2)",
      "L[111100001](0.1,0.17)",
      "L[011101001](0.26,0.17)",
      "L[111000110](0.42000000000000004,0.41000000000000003)"),
    ("NOBiMODis", "surrogate") -> golden("valuated=47 explored=47 pruned=0 skyline=",
      "L[110010010](0.3733579582623987,0.2849564046594068)",
      "L[110000010](0.33999999999999997,0.14)",
      "L[110000110](0.54,0.29000000000000004)",
      "L[111101110](0.44029561765882885,0.24869253134816438)",
      "L[111010010](0.26,0.22999999999999998)",
      "L[111101010](0.14,0.275)",
      "L[111110010](0.23441344127257904,0.19850490060851705)",
      "L[111100010](0.1,0.22999999999999998)",
      "L[111110011](0.1214330433167829,0.365617749126411)"),
    ("BiMODis", "exact") -> golden("valuated=8 explored=48 pruned=42 skyline=",
      "L[111111111](0.38,0.9500000000000001)",
      "L[110000010](0.33999999999999997,0.14)",
      "L[011111111](0.5,0.8)"),
    ("BiMODis", "surrogate") -> golden("valuated=8 explored=48 pruned=42 skyline=",
      "L[111111111](0.38,0.9500000000000001)",
      "L[110000010](0.33999999999999997,0.14)",
      "L[011111111](0.5,0.8)",
      "L[111101111](0.47808735334520447,0.8969420470872534)"),
    ("DivMODis", "exact") -> golden("valuated=54 explored=54 pruned=0 skyline=",
      "L[110010010](0.37999999999999995,0.185)",
      "L[110000010](0.33999999999999997,0.14)",
      "L[110000110](0.54,0.29000000000000004)",
      "L[111111001](0.18,0.23000000000000004)",
      "L[111101001](0.14,0.2)",
      "L[111100001](0.1,0.17)",
      "L[111000110](0.42000000000000004,0.41000000000000003)",
      "L[011100001](0.22,0.14)"),
    ("DivMODis", "surrogate") -> golden("valuated=47 explored=47 pruned=0 skyline=",
      "L[110010010](0.3733579582623987,0.2849564046594068)",
      "L[110000010](0.33999999999999997,0.14)",
      "L[110000110](0.54,0.29000000000000004)",
      "L[111101110](0.44029561765882885,0.24869253134816438)",
      "L[111101010](0.14,0.275)",
      "L[111110010](0.23441344127257904,0.19850490060851705)",
      "L[111100010](0.1,0.22999999999999998)",
      "L[111110011](0.1214330433167829,0.365617749126411)"))

  for ((name, algo, c) <- algos; (label, bootstrap) <- Seq(("exact", Int.MaxValue), ("surrogate", 5)))
    test(s"$name under the $label valuator reproduces its golden output") {
      assert(run(algo, c, bootstrap) == expected((name, label)))
    }
}

package repro
import repro.runtime.JavaBackend
class BackendActiveSpec extends SparkSpec {
  test("Java codegen backend is active") {
    // javac in this JVM must resolve repro.runtime supertypes from the class path
    val probe =
      "package repro.codegen;\n" +
      "public final class ReproProbe extends repro.runtime.CellExec {\n" +
      "  public double genexec(double a, repro.runtime.MatrixBlock[] b, int rix, int cix) { return a; }\n" +
      "}\n"
    assert(JavaBackend.compileClass("ReproProbe", probe).getName == "repro.codegen.ReproProbe",
      "system Java compiler must be available in the forked test JVM")
  }
}

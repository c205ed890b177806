package repro.bench

import repro.SparkSpec

/** Table 3 (paper §5.3): compilation overhead of code generation and
  * plan optimization, per algorithm, with Gen defaults. */
class Table3CompileOverheadBench extends SparkSpec {
  test("Table 3: end-to-end compilation overhead") {
    val rows = Benchmarks.table3()
    println(Benchmarks.printTable3(rows))
    // structural assertions mirroring the paper's findings:
    rows.foreach { r =>
      assert(r.dags > 0 && r.cplans > 0 && r.compiled > 0, r.toString)
      // compilation overhead is a small fraction of end-to-end runtime
      assert(r.codegenMs / 1000.0 < r.totalS, s"${r.name}: codegen ${r.codegenMs}ms vs total ${r.totalS}s")
    }
    // plan cache: iterative algorithms reuse compiled operators across DAGs
    val iterative = rows.filter(r => Set("L2SVM", "GLM", "ALS-CG", "AutoEncoder")(r.name))
    iterative.foreach(r => assert(r.cacheHits > r.compiled, s"${r.name}: expected cache reuse, $r"))
  }
}

/** Table 4 (paper §5.4): data-intensive algorithms, single node. */
class Table4DataIntensiveBench extends SparkSpec {
  test("Table 4: runtime of data-intensive algorithms") {
    val rows = Benchmarks.table4()
    println(Benchmarks.printRuntimeTable("Table 4: Runtime of Data-Intensive Algorithms [s]", rows))
    // shape checks on the largest dense scenario (absolute factors shrink
    // vs the paper and GLM/KMeans hover near parity at 10^6 rows where the
    // eliminated intermediates still fit comfortably in memory — see
    // EXPERIMENTS.md): the scan-dominated L2SVM must clearly win, and Gen
    // must never be far from Base anywhere
    val big = rows.filter(_.data == "10^6 x 10")
    val t = big.find(_.algo == "L2SVM").get.times.toMap
    assert(t("Gen").get < t("Base").get,
      s"L2SVM: Gen ${t("Gen").get} !< Base ${t("Base").get}")
    big.foreach { r =>
      val m = r.times.toMap
      assert(m("Gen").get < 2.5 * m("Base").get,
        s"${r.algo}: Gen ${m("Gen").get} catastrophically worse than Base ${m("Base").get}")
    }
  }
}

/** Table 5 (paper §5.4): compute-intensive algorithms. */
class Table5ComputeIntensiveBench extends SparkSpec {
  test("Table 5: runtime of compute-intensive algorithms") {
    val rows = Benchmarks.table5()
    println(Benchmarks.printRuntimeTable("Table 5: Runtime of Compute-Int. Algorithms [s]", rows))
    // ALS at 10^4 x 10^4: Base/FA/FNR are N/A (dense intermediate), Gen runs
    val alsBig = rows.find(r => r.algo == "ALS-CG" && r.data == "10^4 x 10^4").get
    val t = alsBig.times.toMap
    assert(t("Base").isEmpty && t("Gen-FA").isEmpty && t("Gen-FNR").isEmpty)
    assert(t("Gen").nonEmpty && t("Fused").nonEmpty)
  }
}

/** Table 6 (paper §5.5): distributed algorithms over cached block RDDs. */
class Table6DistributedBench extends SparkSpec {
  test("Table 6: runtime of distributed algorithms") {
    val rows = Benchmarks.table6(spark)
    println(Benchmarks.printRuntimeTable("Table 6: Runtime of Distributed Algorithms [s]", rows))
    rows.foreach { r =>
      val t = r.times.toMap
      assert(t("Gen").nonEmpty && t("Base").nonEmpty)
    }
  }
}

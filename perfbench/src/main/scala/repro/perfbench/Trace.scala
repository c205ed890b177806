package repro.perfbench

import java.util.concurrent.locks.LockSupport
import scala.collection.mutable

/** Maps a driver-thread stack to the layer whose public entry point is
  * innermost on it. Entry points are matched by class and method name
  * from outside the program, so no program code is instrumented.
  */
object Layers {

  val Unattributed = "unattributed"

  private def entryPoint(f: StackTraceElement): Option[String] = {
    val c = f.getClassName
    val m = f.getMethodName
    if (!c.startsWith("repro.")) None
    else if (c == "repro.compiler.Explorer$" && m == "explore") Some("compiler.explore")
    else if (c == "repro.compiler.Selector$" && m == "select") Some("compiler.select")
    else if (c == "repro.compiler.CPlan$" && m.startsWith("construct")) Some("compiler.cplan")
    else if (c == "repro.compiler.Codegen$" && m == "compile") Some("compiler.compile")
    else if (m.startsWith("execute") && c == "repro.runtime.SpoofCellwise") Some("runtime.cell")
    else if (m.startsWith("execute") && c == "repro.runtime.SpoofMultiAgg") Some("runtime.magg")
    else if (m.startsWith("execute") && c == "repro.runtime.SpoofRowwise") Some("runtime.row")
    else if (m.startsWith("execute") && c == "repro.runtime.SpoofOuterProduct") Some("runtime.outer")
    else if (c == "repro.core.Basic$" && m == "execute") Some("runtime.basic")
    else if (c == "repro.dist.DistTemplates$" && m == "execute") Some("dist.fused")
    else if (c == "repro.dist.DistOps$") Some("dist.basic")
    else if (c == "repro.core.ExecContext" || c == "repro.core.Executor$") Some("core.exec")
    else None
  }

  /** Innermost entry point; a `DistOps` helper called by a fused
    * distributed operator counts as `dist.fused`. Stacks without an entry
    * point count as `algos.driver` inside algorithm code and as
    * unattributed elsewhere. */
  def attribute(stack: Array[StackTraceElement]): String = {
    var i = 0
    while (i < stack.length) {
      entryPoint(stack(i)) match {
        case Some("dist.basic") =>
          val outer = stack.iterator.drop(i + 1).flatMap(entryPoint).find(_ != "dist.basic")
          return if (outer.contains("dist.fused")) "dist.fused" else "dist.basic"
        case Some(layer) => return layer
        case None =>
      }
      i += 1
    }
    if (stack.exists(_.getClassName.startsWith("repro.algos."))) "algos.driver" else Unattributed
  }
}

/** Samples one thread's stack at a fixed period while `body` runs.
  * `Thread.getStackTrace` stops the target at a safepoint, so the
  * attribution is safepoint-biased; the benchmark cross-checks the
  * sampled compile time against the program's own javac counter. */
object Sampler {
  val PeriodNanos: Long = 5_000_000L

  final case class Profile(counts: Map[String, Long], wallS: Double) {
    def samples: Long = counts.values.sum
    /** Wall seconds attributed to `layer`: its sample share of the pass. */
    def seconds(layer: String): Double =
      if (samples == 0) 0.0 else wallS * counts.getOrElse(layer, 0L) / samples
  }

  def during[A](body: => A): (A, Profile) = {
    val target = Thread.currentThread()
    val counts = mutable.HashMap[String, Long]()
    @volatile var running = true
    val sampler = new Thread(() => {
      while (running) {
        val layer = Layers.attribute(target.getStackTrace)
        counts.synchronized { counts(layer) = counts.getOrElse(layer, 0L) + 1 }
        LockSupport.parkNanos(PeriodNanos)
      }
    }, "perfbench-sampler")
    sampler.setDaemon(true)
    val t0 = System.nanoTime()
    sampler.start()
    val res = try body finally {
      running = false
      sampler.join()
    }
    val wall = (System.nanoTime() - t0) / 1e9
    (res, Profile(counts.synchronized(counts.toMap), wall))
  }
}

/** Spans of workload -> pass -> algorithm, kept in memory and written as
  * JSON when the benchmark ends. */
final class Spans {
  import Spans.Span

  private val done = mutable.ArrayBuffer[Span]()
  private var open = List.empty[(Int, String, Long)]
  private var nextId = 1
  private val origin = System.nanoTime()

  def apply[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(0)
    open = (id, name, System.nanoTime()) :: open
    try body finally {
      val (_, _, t0) = open.head
      open = open.tail
      done += Span(id, parent, name, t0 - origin, System.nanoTime() - origin)
    }
  }

  /** Duration in seconds of every finished span with this name under the
    * span named `parentName`. */
  def durations(name: String, parentName: String): Seq[Double] = {
    val parents = done.filter(_.name == parentName).map(_.id).toSet
    done.toSeq.filter(s => s.name == name && parents(s.parent)).map(s => (s.endNs - s.startNs) / 1e9)
  }

  def toJson: String = done.sortBy(_.id).map { s =>
    s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},"start_ns":${s.startNs},"end_ns":${s.endNs}}"""
  }.mkString("[\n", ",\n", "\n]\n")
}

object Spans {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
}

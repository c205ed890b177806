package org.apache.spark.perfbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Counts the Spark work behind the `repro.dist` layer: jobs, stages,
  * tasks, job wall time, task run and CPU time, and shuffle and result
  * bytes. Listener events arrive asynchronously, so [[snapshot]] first
  * drains the listener bus; that call is package-private to Spark, which
  * is why this class lives under `org.apache.spark`.
  *
  * Broadcast bytes are not visible to a listener and are not counted.
  */
final class LayerListener(val sc: SparkContext) extends SparkListener {
  private val jobStartMs = mutable.HashMap[Int, Long]()
  private var jobs, stages, tasks = 0L
  private var jobWaitMs, taskRunMs, taskCpuNs = 0L
  private var shuffleWrite, shuffleRead, resultBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    jobStartMs(e.jobId) = e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStartMs.remove(e.jobId).foreach(t0 => jobWaitMs += e.time - t0)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      taskRunMs += m.executorRunTime
      taskCpuNs += m.executorCpuTime
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      shuffleRead += m.shuffleReadMetrics.totalBytesRead
      resultBytes += m.resultSize
    }
  }

  /** Zero every counter (called before each measured pass). */
  def reset(): Unit = {
    sc.listenerBus.waitUntilEmpty()
    synchronized {
      jobStartMs.clear()
      jobs = 0; stages = 0; tasks = 0
      jobWaitMs = 0; taskRunMs = 0; taskCpuNs = 0
      shuffleWrite = 0; shuffleRead = 0; resultBytes = 0
    }
  }

  /** Counters since the last [[reset]], keyed by metric name. */
  def snapshot(): Map[String, Double] = {
    sc.listenerBus.waitUntilEmpty()
    val mb = 1024.0 * 1024.0
    synchronized {
      Map(
        "dist.jobs" -> jobs.toDouble,
        "dist.stages" -> stages.toDouble,
        "dist.tasks" -> tasks.toDouble,
        "dist.job_wait_s" -> jobWaitMs / 1e3,
        "dist.task_run_s" -> taskRunMs / 1e3,
        "dist.task_cpu_s" -> taskCpuNs / 1e9,
        "dist.shuffle_write_mb" -> shuffleWrite / mb,
        "dist.shuffle_read_mb" -> shuffleRead / mb,
        "dist.result_mb" -> resultBytes / mb,
      )
    }
  }
}

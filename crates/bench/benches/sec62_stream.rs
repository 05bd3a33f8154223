//! §6.2 bench: prints the stream-reduction table, then times the streaming
//! pipeline end to end over a recorded flood.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use skynet_bench::corpus::severe_cable_cut;
use skynet_bench::experiments::sec62;
use skynet_bench::ExperimentScale;
use skynet_core::pipeline::StreamEvent;
use skynet_core::{PipelineConfig, SkyNet};
use skynet_telemetry::{TelemetryConfig, TelemetrySuite};
use skynet_topology::GeneratorConfig;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("{}", sec62::run(ExperimentScale::Small).render());

    let scenario = severe_cable_cut(GeneratorConfig::small(), 21);
    let run =
        TelemetrySuite::standard(scenario.topology(), TelemetryConfig::default()).run(&scenario);
    let mut group = c.benchmark_group("sec62");
    group.throughput(Throughput::Elements(run.alerts.len() as u64));
    group.bench_function("streaming_pipeline_end_to_end", |b| {
        b.iter(|| {
            let skynet = SkyNet::builder(scenario.topology())
                .config(PipelineConfig::production())
                .build();
            let handle = skynet.stream();
            for a in &run.alerts {
                handle.events.send(StreamEvent::Alert(a.clone())).unwrap();
            }
            handle.events.send(StreamEvent::Flush).unwrap();
            let incidents: Vec<_> = handle.incidents.iter().collect();
            handle.join().unwrap();
            black_box(incidents)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);

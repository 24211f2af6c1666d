let () =
  Alcotest.run "gridbw"
    (Test_prng.suites @ Test_sim.suites @ Test_topology.suites @ Test_request.suites
   @ Test_alloc.suites @ Test_timeline.suites @ Test_flow.suites @ Test_workload.suites @ Test_metrics.suites
   @ Test_hotspot.suites @ Test_report.suites @ Test_policy.suites @ Test_rigid.suites
   @ Test_flexible.suites @ Test_exact.suites @ Test_npc.suites @ Test_long_lived.suites
   @ Test_baseline.suites @ Test_control.suites @ Test_distributed.suites
   @ Test_coalloc.suites @ Test_experiments.suites @ Test_properties.suites
   @ Test_extras.suites @ Test_transport.suites @ Test_validate.suites
   @ Test_edges.suites @ Test_fault.suites @ Test_obs.suites @ Test_conformance.suites
   @ Test_store.suites @ Test_serve.suites @ Test_wire.suites @ Test_shard.suites
   @ Test_malleable.suites @ Test_kernels.suites)

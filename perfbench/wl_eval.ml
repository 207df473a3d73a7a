(* eval: the paper's §5 sweep.  Per kernel of [Workloads.all]: one
   profile op on the train input, then one cell op per variant on the
   ref input (lower, optimize, codegen + schedule, in-order simulation,
   vm lowering + execution).  The seed orders the kernels and, within a
   kernel, the variants; the kernels' inputs are the fixed train/ref
   inputs, so the simulated cycle counts repeat exactly. *)

open Spec_ir
open Spec_prof
open Spec_driver
module W = Spec_workloads.Workloads
module Machine = Spec_machine.Machine
module M = Measure

let variant_names = [ "noopt"; "base"; "profile"; "heuristic" ]

(* stable op ids: kernel k owns ids 5k (profile) .. 5k+4 (cells) *)
let variant_index = function
  | "noopt" -> 0 | "base" -> 1 | "profile" -> 2 | _ -> 3

type kernel = {
  w : W.workload;
  train_src : string;
  ref_src : string;
  train_out : string;     (* Interp_ref on the unoptimized train lowering *)
  ref_out : string;       (* Interp_ref on the unoptimized ref lowering *)
  vorder : string list;   (* seeded variant order *)
}

type t = {
  kernels : kernel list;
  mutable sim_cycles : int list;   (* per round: cycles of the profile cells *)
}

let oracle src = (Interp_ref.run (Lower.compile src)).Interp_ref.output

let setup ~seed =
  let rng = Spec_stress.Srng.of_path seed [ "eval" ] in
  let kernels =
    List.map
      (fun (w : W.workload) ->
        let train_src = W.train_source w and ref_src = W.ref_source w in
        { w; train_src; ref_src;
          train_out = oracle train_src;
          ref_out = oracle ref_src;
          vorder =
            M.shuffle (Spec_stress.Srng.split rng w.W.name) variant_names })
      (M.shuffle rng W.all)
  in
  { kernels; sim_cycles = [] }

let static_insns (mp : Spec_codegen.Itl.mprog) =
  Hashtbl.fold
    (fun _ (f : Spec_codegen.Itl.mfunc) acc ->
      Array.fold_left
        (fun acc (b : Spec_codegen.Itl.mblock) ->
          acc + List.length b.Spec_codegen.Itl.insns + 1)
        acc f.Spec_codegen.Itl.mf_blocks)
    mp.Spec_codegen.Itl.mp_funcs 0

let lower src =
  M.add "ir.src_bytes" (float_of_int (String.length src));
  Span.span "ir.lower" (fun () -> Lower.compile src)

let profile_op k =
  let prog = lower k.train_src in
  Span.span "prof.profile" (fun () -> Profiler.profile prog)

let cell_op k prof vname =
  let variant =
    match vname with
    | "noopt" -> Pipeline.Noopt
    | "base" -> Pipeline.Base
    | "profile" -> Pipeline.Spec_profile prof
    | _ -> Pipeline.Spec_heuristic
  in
  let prog = lower k.ref_src in
  let a0 = Gc.minor_words () in
  let r =
    Span.span "opt.optimize" (fun () ->
        Pipeline.optimize ~edge_profile:(Some prof) prog variant)
  in
  M.add "opt.alloc_words" (Gc.minor_words () -. a0);
  let mp = Span.span "codegen.lower" (fun () ->
      Spec_codegen.Codegen.lower r.Pipeline.prog) in
  ignore (Span.span "codegen.schedule" (fun () ->
      Spec_codegen.Schedule.run mp) : Spec_codegen.Schedule.stats);
  let m = Span.span "machine.sim" (fun () ->
      Machine.run_on Machine.Inorder mp) in
  let vp = Span.span "vm.lower" (fun () -> Vmcode.compile r.Pipeline.prog) in
  let v = Span.span "vm.exec" (fun () -> Vm.run_program vp) in
  (r, mp, m, v)

let round t =
  let cycles = ref 0 in
  List.iteri
    (fun ki k ->
      let name = k.w.W.name in
      match
        M.op ~id:(ki * 5) ~cls:"profile" ~label:(name ^ "/train-profile")
          (fun () -> profile_op k)
      with
      | None -> ()
      | Some (prof, res) ->
        if res.Interp.output <> k.train_out then
          M.wrong "%s: profiling run output differs from the oracle" name;
        List.iter
          (fun vname ->
            let id = ki * 5 + 1 + variant_index vname in
            match
              M.op ~id ~cls:"cell" ~label:(name ^ "/" ^ vname) (fun () ->
                  cell_op k prof vname)
            with
            | None -> ()
            | Some (r, mp, m, v) ->
              if m.Machine.output <> k.ref_out then
                M.wrong "%s/%s: machine output differs from the oracle" name
                  vname;
              if v.Interp.output <> k.ref_out then
                M.wrong "%s/%s: vm output differs from the oracle" name vname;
              let p = m.Machine.perf in
              if vname = "profile" then cycles := !cycles + p.Machine.cycles;
              let s = r.Pipeline.stats in
              M.add "ssapre.checks" (float_of_int s.Spec_ssapre.Ssapre.checks);
              M.add "ssapre.reloads"
                (float_of_int s.Spec_ssapre.Ssapre.reloads);
              List.iter
                (fun (ps : Passes.pass_stat) ->
                  M.add ("pass." ^ ps.Passes.ps_pass) ps.Passes.ps_time)
                r.Pipeline.report.Passes.rp_passes;
              M.add "codegen.static_insns" (float_of_int (static_insns mp));
              M.add "machine.insns" (float_of_int p.Machine.insns);
              M.add "machine.loads_retired"
                (float_of_int (Machine.loads_retired p));
              M.add "machine.checks" (float_of_int p.Machine.checks);
              M.add "machine.check_misses"
                (float_of_int p.Machine.check_misses);
              M.add "machine.data_cycles" (float_of_int p.Machine.data_cycles);
              M.add "vm.steps" (float_of_int v.Interp.counters.Interp.steps);
              M.add "vm.check_reloads"
                (float_of_int v.Interp.counters.Interp.check_reloads))
          k.vorder)
    t.kernels;
  t.sim_cycles <- !cycles :: t.sim_cycles

(* sim_cycles must repeat exactly from round to round. *)
let e2e t (ops : M.op list) =
  (match t.sim_cycles with
   | c :: rest when List.exists (( <> ) c) rest ->
     M.wrong "eval: sim_cycles differ between rounds"
   | _ -> ());
  let p50 = M.class_p50_ms ops in
  [ ("cold_p50_ms", Some (p50 "cell"));
    ("warm_p50_ms", None);
    ("report_p50_ms", Some (p50 "profile"));
    ("sim_cycles",
     Some (float_of_int (match t.sim_cycles with c :: _ -> c | [] -> 0))) ]

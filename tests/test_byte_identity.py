"""The seeded sweep of ``byte_sweep.py`` against its committed manifest.

On the stack the manifest records the outputs must keep their bytes;
elsewhere their values, within the tolerance ``byte_sweep`` states.  Either
way every exit code must match.  The failure names the comparison that ran,
numpy's SIMD targets in the manifest and here, and each output that moved;
a change that moves outputs on purpose rewrites the manifest with
``python tests/byte_sweep.py --write``.
"""
import byte_sweep


def test_seeded_outputs_match_the_manifest(tmp_path):
    manifest = byte_sweep.load_manifest()
    outputs = byte_sweep.run(tmp_path)
    comparison, differ = byte_sweep.compare(manifest, outputs)
    assert not differ, (
        f"{comparison} comparison (manifest stack {manifest['stack']}, here "
        f"{byte_sweep.stack()}; manifest CPU targets {manifest.get('cpu_targets')}, here "
        f"{byte_sweep.cpu_targets()}): {len(differ)} of {len(outputs)} outputs differ: "
        + ", ".join(differ[:20])
    )

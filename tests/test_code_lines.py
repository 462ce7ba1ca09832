"""The rule of ``tests/code_lines.py``, the counter of code lines quoted in CHANGES.md."""

from code_lines import code_lines, main

SOURCE = '''"""A module docstring
over two lines."""

# a comment
total = (1 +
         2)
'''


def test_a_line_counts_when_it_holds_code_outside_a_docstring():
    # the docstring, the comment and the blank line do not count; both lines of the statement do
    assert code_lines(SOURCE) == 2


def test_class_and_function_docstrings_do_not_count_but_other_strings_do():
    source = (
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring,\n'
        '        two lines."""\n'
        '        return """a string\n'
        '        that is no docstring"""  # trailing comment\n'
    )
    assert code_lines(source) == 4  # class, def and both lines of the returned string


def test_the_table_ends_with_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines] == ["2", "1", "3"]
    assert lines[-1].startswith("total")

import xml.etree.ElementTree as ET

from ranksmooth.plots import line_chart


def test_markup_in_labels_is_escaped(tmp_path):
    path = tmp_path / "chart.svg"
    line_chart(path, [0, 1, 2], {"a<b": [0.1, 0.2, 0.3], "c & d": [0.3, 0.2, 0.1]},
               "<title> & more", "x<1", "y>0")
    root = ET.parse(path).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    for label in ("a<b", "c & d", "<title> & more", "x<1", "y>0"):
        assert label in texts
